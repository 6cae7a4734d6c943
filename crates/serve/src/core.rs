//! The long-lived, non-blocking service core: a [`ServeHandle`] is a
//! cheaply clonable, `Send + Sync` front door to a fixed pool of
//! `std::thread` workers draining a shared [`JobQueue`](crate::JobQueue).
//!
//! `submit` never blocks on generation — it resolves the model, applies
//! admission control, enqueues, and returns a [`Ticket`] the caller can
//! [`wait`](Ticket::wait) on or poll; each job's [`JobResult`] is
//! delivered over the ticket's private channel by the worker that ran it
//! ("workers push completions"). There is no end-of-batch report baked
//! into the lifecycle: [`ServeHandle::stats`] takes an on-demand
//! [`ServeStats`] snapshot (running cache / affinity / latency counters)
//! at any point while the service keeps accepting traffic. A batch is
//! submit → [`Ticket::wait`] → [`shutdown`](ServeHandle::shutdown); the
//! TCP [`Frontend`](crate::Frontend) is a thin layer over this core.
//!
//! Shutdown is explicit and layered: [`close`](ServeHandle::close) stops
//! admission and lets workers drain, [`abort`](ServeHandle::abort)
//! additionally discards queued jobs (counted in
//! [`ServeStats::dropped_jobs`]; their tickets observe the dropped reply
//! channel as [`ServeError::JobDropped`]), and dropping the last handle
//! aborts and joins the workers so a core can never leak parked threads.

use crate::cache::{CacheKey, SnapshotCache};
use crate::queue::{Job, JobQueue};
use crate::registry::{ModelHandle, ModelRegistry};
use crate::stream::StreamStats;
use crate::tenant::{Tenant, TenantId, TenantRegistry};
use crate::{CacheBudget, ServeError};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::BufWriter;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, TryRecvError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use vrdag::{DecodeCounts, GenerationState, Vrdag};
use vrdag_graph::io::{BinaryStreamWriter, TsvStreamWriter};
use vrdag_graph::{DynamicGraph, Snapshot};
use vrdag_obs::metrics::{Counter, Histogram, HistogramSnapshot, Registry as MetricsRegistry};
use vrdag_obs::{JobTrace, Logger, StageDurations};

/// Per-snapshot streaming consumer (see [`GenSink::Callback`]).
pub type SnapshotCallback = Box<dyn FnMut(usize, &Snapshot) + Send>;

/// Cooperative cancellation for one job: a cheap, clonable flag shared
/// between the submitter and the worker. Once [`cancel`](Self::cancel)
/// is called the generation loop stops at the next snapshot boundary —
/// whether it is stepping the model cold or replaying a cache hit — the
/// job's partial file output (if any) is removed, nothing is inserted
/// into the snapshot cache, and the [`JobResult`] reports
/// [`cancelled`](JobResult::cancelled) with the snapshots actually
/// delivered. A job cancelled while still queued never instantiates a
/// model at all.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Request cancellation. Idempotent; takes effect at the next
    /// snapshot boundary.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// Where a job's snapshots go, one at a time.
pub enum GenSink {
    /// Stream to a TSV file (`vrdag_graph::io` temporal format),
    /// flushed per snapshot.
    TsvFile(PathBuf),
    /// Stream to a compact binary file, flushed per snapshot.
    BinaryFile(PathBuf),
    /// Hand each `(timestep, snapshot)` to a consumer as it is produced.
    /// The callback runs on the worker thread that runs the job, between
    /// snapshots, so blocking it blocks that worker.
    Callback(SnapshotCallback),
    /// Collect the full sequence into [`JobResult::graph`] (unbounded
    /// memory — intended for small sequences, tests, and cached serving).
    InMemory,
    /// Generate and drop (throughput measurement / cache warming).
    Discard,
}

impl std::fmt::Debug for GenSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GenSink::TsvFile(p) => f.debug_tuple("TsvFile").field(p).finish(),
            GenSink::BinaryFile(p) => f.debug_tuple("BinaryFile").field(p).finish(),
            GenSink::Callback(_) => f.write_str("Callback(..)"),
            GenSink::InMemory => f.write_str("InMemory"),
            GenSink::Discard => f.write_str("Discard"),
        }
    }
}

/// Exactly-once completion hook attached to a [`GenRequest`].
///
/// The frontend's reactor uses this to learn that a job's [`Ticket`] has
/// become ready without parking a waiter thread per job: the hook fires
/// *after* the [`JobResult`] is delivered on the ticket channel when a
/// worker finishes the job, and fires on drop when the job is discarded
/// (an [`abort`](ServeHandle::abort) — the ticket reports
/// [`ServeError::JobDropped`] by then, because the job's reply sender
/// drops before this field does). Either way, by the time the hook runs,
/// [`Ticket::try_wait`] is guaranteed to resolve.
#[derive(Default)]
pub struct CompletionNotify(Option<Box<dyn FnOnce() + Send>>);

impl CompletionNotify {
    /// Arm the hook. `f` must be cheap and non-blocking: the worker that
    /// finished the job calls it inline.
    pub fn new(f: impl FnOnce() + Send + 'static) -> Self {
        CompletionNotify(Some(Box::new(f)))
    }

    /// Run the hook now if still armed (idempotent).
    pub(crate) fn fire(&mut self) {
        if let Some(f) = self.0.take() {
            f();
        }
    }
}

impl Drop for CompletionNotify {
    fn drop(&mut self) {
        self.fire();
    }
}

impl std::fmt::Debug for CompletionNotify {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.0.is_some() {
            "CompletionNotify(armed)"
        } else {
            "CompletionNotify(none)"
        })
    }
}

/// A seed-addressed generation request.
#[derive(Debug)]
pub struct GenRequest {
    /// Registered model name (resolved against the registry at submit
    /// time, so unknown names fail fast).
    pub model: String,
    /// Number of snapshots to generate (must be `>= 1`).
    pub t_len: usize,
    /// Determinism address: the same `(model, t_len, seed)` always yields
    /// the same sequence, regardless of which worker runs it and whether
    /// the snapshot cache serves it.
    pub seed: u64,
    /// Scheduling priority. Higher drains first; the scheduler treats it
    /// per model group (a group's priority is the max over its queued
    /// jobs), and jobs within a group stay FIFO.
    pub priority: i32,
    /// Where the snapshots go.
    pub sink: GenSink,
    /// Cooperative cancellation flag (optional). See [`CancelToken`].
    pub cancel: Option<CancelToken>,
    /// Tenant this job runs on behalf of; `None` maps to the built-in
    /// anonymous tenant (no quotas, weight 1). Resolved against the
    /// service's [`TenantRegistry`] at submit time.
    pub tenant: Option<TenantId>,
    /// Stage trace carried through the job's whole lifecycle
    /// (submitted → dequeued → snapshots → delivered); `None` lets
    /// `submit` create a fresh one. Pass a pre-made trace to anchor the
    /// clock earlier (e.g. when the request was parsed off the wire).
    pub trace: Option<JobTrace>,
    /// Exactly-once completion hook (see [`CompletionNotify`]); unarmed
    /// by default. Note: a request *rejected by `submit`* fires the hook
    /// too (the request is consumed either way), so listeners must
    /// tolerate a notification for work they never recorded as pending.
    pub notify: CompletionNotify,
}

impl GenRequest {
    /// A request with default (zero) priority, no cancellation token,
    /// and the anonymous tenant.
    pub fn new(model: impl Into<String>, t_len: usize, seed: u64, sink: GenSink) -> Self {
        GenRequest {
            model: model.into(),
            t_len,
            seed,
            priority: 0,
            sink,
            cancel: None,
            tenant: None,
            trace: None,
            notify: CompletionNotify::default(),
        }
    }

    /// Set the scheduling priority (higher drains first).
    pub fn with_priority(mut self, priority: i32) -> Self {
        self.priority = priority;
        self
    }

    /// Attach a cancellation token the caller can trip later.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Run the job on behalf of `tenant` (must be registered with the
    /// service's [`TenantRegistry`], or the submit fails).
    pub fn with_tenant(mut self, tenant: TenantId) -> Self {
        self.tenant = Some(tenant);
        self
    }

    /// Attach a pre-created [`JobTrace`] (e.g. anchored when the request
    /// came off the wire) instead of letting `submit` start one.
    pub fn with_trace(mut self, trace: JobTrace) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Arm an exactly-once completion hook: it runs after the job's
    /// result is deliverable on its [`Ticket`] (worker finished, or job
    /// discarded by an abort). See [`CompletionNotify`].
    pub fn with_notify(mut self, f: impl FnOnce() + Send + 'static) -> Self {
        self.notify = CompletionNotify::new(f);
        self
    }
}

/// Opaque job identifier (submission order).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

/// Outcome and throughput of one executed job, delivered on its
/// [`Ticket`]'s channel by the worker that ran it.
#[derive(Debug)]
pub struct JobResult {
    pub id: JobId,
    pub model: String,
    /// Tenant the job ran on behalf of (`anonymous` unless the request
    /// carried one).
    pub tenant: TenantId,
    pub t_len: usize,
    pub seed: u64,
    /// Snapshots produced (`t_len` on success; 0 on failure — a failed
    /// file-sink job also has its partial output file removed).
    pub snapshots: usize,
    /// Total temporal edges produced.
    pub edges: usize,
    /// Pairs the decoder considered and scored for this job's snapshots
    /// (zero for a cache hit, which decodes nothing).
    pub decode: DecodeCounts,
    /// Approximate bytes of snapshot data streamed to the sink
    /// (`Snapshot::approx_bytes` summed over delivered snapshots) —
    /// the unit the per-tenant `bytes_streamed` accounting uses.
    pub bytes: usize,
    /// Wall-clock job duration in seconds (excluding queue wait).
    pub seconds: f64,
    /// Generation rate of this job.
    pub snapshots_per_sec: f64,
    /// True when the snapshot cache served this job without regenerating.
    pub cache_hit: bool,
    /// True when the job was stopped early by its [`CancelToken`]:
    /// `snapshots` holds how many were delivered before the stop,
    /// `error` stays `None` (cancellation is not a failure), and no
    /// partial output survives (file sinks are removed, nothing enters
    /// the cache).
    pub cancelled: bool,
    /// Service-wide completion sequence number (1-based): results sorted
    /// by `seq` are in completion order, even though each travels on its
    /// own ticket channel.
    pub seq: u64,
    /// The generated sequence, for [`GenSink::InMemory`] jobs. Shared
    /// with the snapshot cache when caching is enabled.
    pub graph: Option<Arc<DynamicGraph>>,
    /// Error message if the job failed.
    pub error: Option<String>,
    /// Per-stage durations derived from the job's [`JobTrace`]
    /// (queue wait, time to first snapshot, generation, delivery).
    pub stages: StageDurations,
}

impl JobResult {
    pub fn is_ok(&self) -> bool {
        self.error.is_none()
    }
}

/// Coalescing identity of a job — exactly the snapshot-cache key, so
/// "identical request" means "would be served by the same cache entry".
pub(crate) fn job_cache_key(handle: &ModelHandle, t_len: usize, seed: u64) -> CacheKey {
    CacheKey {
        model_fingerprint: handle.fingerprint(),
        model_size: handle.size_bytes(),
        t_len,
        seed,
    }
}

/// Construction-time knobs of a [`ServeHandle`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads (must be `>= 1`).
    pub workers: usize,
    /// Admission control: `submit` fails with [`ServeError::QueueFull`]
    /// once this many jobs are queued (in-flight jobs do not count).
    /// `None` disables the cap.
    pub max_queue_depth: Option<usize>,
    /// Snapshot-cache budget; [`CacheBudget::disabled`] turns caching off.
    pub cache: CacheBudget,
    /// Tenant identities, tokens, quotas, and fair-share weights. The
    /// default ([`TenantRegistry::anonymous_only`]) disables auth and
    /// maps every request to the quota-free anonymous tenant —
    /// behavior-identical to the pre-tenant service.
    pub tenants: TenantRegistry,
    /// Structured logger the service (and its frontends) emit events
    /// through. The default is [`Logger::disabled`] — zero overhead and
    /// behavior-identical to the pre-observability service.
    pub logger: Logger,
    /// Threads each worker may use *inside* one job (parallel per-row
    /// decode; see `vrdag_tensor::par`). `None` derives the request from
    /// `VRDAG_THREADS` / available parallelism. Whatever is requested is
    /// clamped so `workers × intra-job threads` never oversubscribes the
    /// host ([`ServeHandle::intra_threads`] reports the effective value).
    /// The thread count never changes output bytes — see
    /// `tests/parallel_determinism.rs`.
    pub intra_threads: Option<usize>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            max_queue_depth: None,
            cache: CacheBudget::disabled(),
            tenants: TenantRegistry::anonymous_only(),
            logger: Logger::disabled(),
            intra_threads: None,
        }
    }
}

/// How well model-affinity batching amortized instantiation: a "run" is a
/// maximal stretch of consecutive same-model jobs executed by one worker
/// (one model instantiation each, at most). Live snapshots count each
/// worker's currently open run, so the numbers are meaningful mid-flight.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AffinityStats {
    /// Number of same-model runs across all workers (open runs included).
    pub batches: usize,
    /// Length of the longest run.
    pub max_batch_len: usize,
    /// Mean jobs per run.
    pub mean_batch_len: f64,
}

/// Wall-clock latency distribution over the service's lifetime,
/// bucket-interpolated: a view of one registry histogram (bounds
/// [`DURATION_BUCKETS`](vrdag_obs::metrics::DURATION_BUCKETS)), so
/// `STATS` and `METRICS` read the same store. The mean is exact; the
/// percentiles are [`HistogramSnapshot::quantile`] estimates, and a value
/// reads somewhere inside its bucket (a 29 ms median in (25, 50] ms).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LatencyStats {
    /// Jobs measured (the histogram's `_count`).
    pub samples: u64,
    /// Exact mean (`_sum / _count`).
    pub mean_seconds: f64,
    /// Median wall time.
    pub p50_seconds: f64,
    /// 95th-percentile wall time.
    pub p95_seconds: f64,
    /// 99th-percentile wall time.
    pub p99_seconds: f64,
    /// Upper bound of the highest occupied bucket (the last finite
    /// bound when a sample overflowed into `+Inf`).
    pub max_seconds: f64,
}

/// Per-stage latency percentiles derived from each job's [`JobTrace`]
/// marks: lifetime, bucket-interpolated views of the
/// `vrdag_job_stage_seconds{stage}` histograms, like [`LatencyStats`].
/// Stages a job never reached (e.g. `first_snapshot` for a
/// queued-cancelled job) are simply not sampled.
#[derive(Clone, Debug, Default)]
pub struct StageLatencyStats {
    /// Submit accepted → worker pickup.
    pub queue_wait: LatencyStats,
    /// Worker pickup → first snapshot written to the sink.
    pub first_snapshot: LatencyStats,
    /// Worker pickup → last snapshot written to the sink.
    pub generation: LatencyStats,
    /// Last snapshot → result handoff to the ticket.
    pub delivery: LatencyStats,
}

/// Point-in-time per-tenant counters inside a [`ServeStats`] snapshot.
#[derive(Clone, Debug)]
pub struct TenantStats {
    /// Tenant id (`anonymous` for unauthenticated traffic).
    pub id: String,
    /// Fair-share weight the scheduler applies to this tenant.
    pub weight: u32,
    /// Jobs accepted by `submit` on behalf of this tenant.
    pub submitted: u64,
    /// Jobs that finished executing (success, failure, or cancelled).
    pub completed: u64,
    /// Completed jobs that failed.
    pub failed: u64,
    /// Completed jobs stopped early by their [`CancelToken`].
    pub cancelled: u64,
    /// Submissions refused by admission control (tenant quotas, the
    /// rate limit, or the global queue cap).
    pub rejected: u64,
    /// Approximate bytes of snapshot data streamed to this tenant's
    /// sinks ([`JobResult::bytes`] summed).
    pub bytes_streamed: u64,
    /// Median job wall time over this tenant's lifetime,
    /// bucket-interpolated from `vrdag_tenant_job_seconds{tenant}`.
    pub p50_seconds: f64,
    /// 95th-percentile job wall time, from the same histogram.
    pub p95_seconds: f64,
}

impl LatencyStats {
    /// The view of one histogram snapshot (see the type docs).
    fn from_snapshot(snap: &HistogramSnapshot) -> LatencyStats {
        if snap.count == 0 {
            return LatencyStats::default();
        }
        LatencyStats {
            samples: snap.count,
            mean_seconds: snap.sum / snap.count as f64,
            p50_seconds: snap.quantile(0.50),
            p95_seconds: snap.quantile(0.95),
            p99_seconds: snap.quantile(0.99),
            // The top rank interpolates to its bucket's upper bound.
            max_seconds: snap.quantile(1.0),
        }
    }

    /// `p50/p95/p99` rendered in milliseconds.
    pub fn render(&self) -> String {
        format!(
            "p50 {:.2}ms  p95 {:.2}ms  p99 {:.2}ms  (mean {:.2}ms, max {:.2}ms over {} jobs)",
            self.p50_seconds * 1e3,
            self.p95_seconds * 1e3,
            self.p99_seconds * 1e3,
            self.mean_seconds * 1e3,
            self.max_seconds * 1e3,
            self.samples,
        )
    }
}

/// On-demand point-in-time snapshot of a running service — the
/// replacement for the retired end-of-batch report: callers pull it
/// whenever they want instead of waiting for a drain.
#[derive(Clone, Debug)]
pub struct ServeStats {
    /// Worker threads the pool was built with.
    pub workers: usize,
    /// Seconds since the core was created.
    pub uptime_seconds: f64,
    /// Jobs accepted by `submit`.
    pub submitted: u64,
    /// Jobs that finished executing (success or failure).
    pub completed: u64,
    /// Completed jobs that failed.
    pub failed: u64,
    /// Completed jobs stopped early by their [`CancelToken`] (not
    /// counted as failures).
    pub cancelled: u64,
    /// Queued jobs discarded by `abort`/drop without ever running.
    pub dropped_jobs: u64,
    /// Jobs queued and not yet picked up by a worker.
    pub queue_depth: usize,
    /// Jobs currently executing.
    pub in_flight: usize,
    /// Highest observed number of simultaneously executing jobs.
    pub max_in_flight: usize,
    /// Snapshots produced by completed jobs.
    pub snapshots: u64,
    /// Temporal edges produced by completed jobs.
    pub edges: u64,
    /// Decoder pairs of completed jobs: `n(n−1)` per generated snapshot,
    /// and how many of them had their sampling logit scored.
    pub decode: DecodeCounts,
    /// Snapshot-cache counters (all zero when disabled).
    pub cache: crate::CacheStats,
    /// Model-affinity batching statistics.
    pub affinity: AffinityStats,
    /// Per-job wall-time percentiles.
    pub latency: LatencyStats,
    /// Per-stage percentiles from the jobs' [`JobTrace`] marks.
    pub stages: StageLatencyStats,
    /// Per-tenant counters, sorted by tenant id. Only tenants that have
    /// submitted (or been rejected) at least once appear.
    pub tenants: Vec<TenantStats>,
}

impl ServeStats {
    /// Completed jobs per uptime second (coarse; prefer your own clock
    /// for micro-benchmarks).
    pub fn jobs_per_sec(&self) -> f64 {
        self.completed as f64 / self.uptime_seconds.max(1e-9)
    }

    /// Human-readable multi-line summary.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "serve: {} submitted / {} completed ({} failed, {} cancelled, {} dropped) on {} workers in {:.3}s  (peak {} in flight, {} queued now)",
            self.submitted,
            self.completed,
            self.failed,
            self.cancelled,
            self.dropped_jobs,
            self.workers,
            self.uptime_seconds,
            self.max_in_flight,
            self.queue_depth,
        );
        let _ = writeln!(
            out,
            "  throughput: {} snapshots / {} edges total ({} of {} decode pairs scored)",
            self.snapshots, self.edges, self.decode.scored, self.decode.pairs,
        );
        let _ = writeln!(
            out,
            "  gauges: uptime_secs={:.0} jobs_inflight={}",
            self.uptime_seconds, self.in_flight
        );
        let _ = writeln!(out, "  latency: {}", self.latency.render());
        let _ = writeln!(
            out,
            "  stages: queue p50 {:.2}ms p95 {:.2}ms | first-snapshot p50 {:.2}ms p95 {:.2}ms | generation p50 {:.2}ms p95 {:.2}ms | delivery p50 {:.2}ms p95 {:.2}ms",
            self.stages.queue_wait.p50_seconds * 1e3,
            self.stages.queue_wait.p95_seconds * 1e3,
            self.stages.first_snapshot.p50_seconds * 1e3,
            self.stages.first_snapshot.p95_seconds * 1e3,
            self.stages.generation.p50_seconds * 1e3,
            self.stages.generation.p95_seconds * 1e3,
            self.stages.delivery.p50_seconds * 1e3,
            self.stages.delivery.p95_seconds * 1e3,
        );
        let _ = writeln!(
            out,
            "  cache: {} hits / {} misses ({:.0}% hit rate), {} evictions, {} entries / {} KiB resident",
            self.cache.hits,
            self.cache.misses,
            100.0 * self.cache.hit_rate(),
            self.cache.evictions,
            self.cache.entries,
            self.cache.bytes / 1024,
        );
        let _ = writeln!(
            out,
            "  affinity: {} model batches, max {} jobs/batch, mean {:.1}",
            self.affinity.batches, self.affinity.max_batch_len, self.affinity.mean_batch_len,
        );
        // Anonymous-only traffic keeps the legacy single-tenant summary;
        // the per-tenant section appears once named tenants show up.
        if self.tenants.iter().any(|t| t.id != crate::tenant::ANONYMOUS_TENANT) {
            let _ = writeln!(out, "  tenants:");
            for t in &self.tenants {
                let _ = writeln!(
                    out,
                    "    {:<16} w={}  {} submitted / {} completed ({} failed, {} cancelled, {} rejected)  {} KiB streamed  p50 {:.2}ms p95 {:.2}ms",
                    t.id,
                    t.weight,
                    t.submitted,
                    t.completed,
                    t.failed,
                    t.cancelled,
                    t.rejected,
                    t.bytes_streamed / 1024,
                    t.p50_seconds * 1e3,
                    t.p95_seconds * 1e3,
                );
            }
        }
        out
    }
}

/// Claim on one submitted job: the receive side of its private result
/// channel. The result is delivered exactly once — after a successful
/// [`try_wait`](Ticket::try_wait)/[`wait_timeout`](Ticket::wait_timeout),
/// further waits report [`ServeError::JobDropped`].
#[derive(Debug)]
pub struct Ticket {
    id: JobId,
    model: String,
    t_len: usize,
    seed: u64,
    rx: Receiver<JobResult>,
}

impl Ticket {
    pub fn id(&self) -> JobId {
        self.id
    }

    /// The request's registered model name.
    pub fn model(&self) -> &str {
        &self.model
    }

    pub fn t_len(&self) -> usize {
        self.t_len
    }

    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Block until the job completes. Returns
    /// [`ServeError::JobDropped`] when the job was discarded by an
    /// abort/drop before a worker ran it (or its result was already
    /// consumed by a poll).
    pub fn wait(self) -> Result<JobResult, ServeError> {
        self.rx.recv().map_err(|_| ServeError::JobDropped)
    }

    /// Non-blocking poll: `Ok(None)` while the job is still queued or
    /// running.
    pub fn try_wait(&mut self) -> Result<Option<JobResult>, ServeError> {
        match self.rx.try_recv() {
            Ok(result) => Ok(Some(result)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(ServeError::JobDropped),
        }
    }

    /// Bounded wait: `Ok(None)` on timeout.
    pub fn wait_timeout(&mut self, timeout: Duration) -> Result<Option<JobResult>, ServeError> {
        match self.rx.recv_timeout(timeout) {
            Ok(result) => Ok(Some(result)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(ServeError::JobDropped),
        }
    }
}

/// The `outcome` labels of `vrdag_tenant_jobs_total`.
pub(crate) const TENANT_OUTCOMES: [&str; 5] =
    ["submitted", "completed", "failed", "cancelled", "rejected"];

/// One tenant's live series, `vrdag_tenant_jobs_total{outcome}`,
/// `vrdag_tenant_streamed_bytes_total` and `vrdag_tenant_job_seconds`,
/// labelled `tenant=<id>` and registered on the tenant's first submit.
struct TenantSeries {
    submitted: Counter,
    completed: Counter,
    failed: Counter,
    cancelled: Counter,
    rejected: Counter,
    streamed_bytes: Counter,
    job_seconds: Histogram,
}

impl TenantSeries {
    fn new(id: &TenantId, registry: &MetricsRegistry) -> TenantSeries {
        let tenant = id.as_str();
        let [submitted, completed, failed, cancelled, rejected] = TENANT_OUTCOMES.map(|outcome| {
            registry.counter("vrdag_tenant_jobs_total", &[("tenant", tenant), ("outcome", outcome)])
        });
        TenantSeries {
            submitted,
            completed,
            failed,
            cancelled,
            rejected,
            streamed_bytes: registry
                .counter("vrdag_tenant_streamed_bytes_total", &[("tenant", tenant)]),
            job_seconds: registry.histogram("vrdag_tenant_job_seconds", &[("tenant", tenant)]),
        }
    }

    fn record_result(&self, result: &JobResult) {
        self.completed.inc();
        if result.error.is_some() {
            self.failed.inc();
        }
        if result.cancelled {
            self.cancelled.inc();
        }
        self.streamed_bytes.add(result.bytes as u64);
        self.job_seconds.observe(result.seconds);
    }
}

/// Mutable running statistics updated by workers as they complete jobs.
struct RunningStats {
    /// Closed affinity runs: count / total jobs / longest.
    runs: usize,
    runs_sum: usize,
    runs_max: usize,
    /// Per-worker open run: (model fingerprint, jobs so far).
    open_runs: Vec<(Option<u64>, usize)>,
    /// Per-tenant series, registered lazily on first traffic.
    tenants: std::collections::HashMap<TenantId, Arc<TenantSeries>>,
}

/// Stage labels, in [`CoreMetrics::stage_seconds`] index order.
const STAGE_NAMES: [&str; STAGE_COUNT] = ["queue_wait", "first_snapshot", "generation", "delivery"];
const STAGE_COUNT: usize = 4;

impl RunningStats {
    fn new(workers: usize) -> Self {
        RunningStats {
            runs: 0,
            runs_sum: 0,
            runs_max: 0,
            open_runs: vec![(None, 0); workers],
            tenants: std::collections::HashMap::new(),
        }
    }

    fn close_run(&mut self, worker: usize) {
        let (_, len) = self.open_runs[worker];
        if len > 0 {
            self.runs += 1;
            self.runs_sum += len;
            self.runs_max = self.runs_max.max(len);
        }
        self.open_runs[worker] = (None, 0);
    }

    fn affinity(&self) -> AffinityStats {
        let open: Vec<usize> =
            self.open_runs.iter().map(|&(_, len)| len).filter(|&len| len > 0).collect();
        let batches = self.runs + open.len();
        let sum = self.runs_sum + open.iter().sum::<usize>();
        let max = self.runs_max.max(open.iter().copied().max().unwrap_or(0));
        AffinityStats {
            batches,
            max_batch_len: max,
            mean_batch_len: if batches == 0 { 0.0 } else { sum as f64 / batches as f64 },
        }
    }
}

/// Wall time past which a completed job earns a warn-level log event.
const SLOW_JOB_WARN_SECONDS: f64 = 10.0;

/// The core's live metric handles. The registry is the only store of
/// every counter and latency: [`ServeHandle::stats`] reads these same
/// handles (and the cache's and tenants'), so `METRICS` and `STATS`
/// cannot drift apart. Only derived gauges are sampled at render time.
/// Counters are `Relaxed` statistics that publish no other data; a
/// caller who saw a job finish reads its counts after the result
/// channel's hand-off.
struct CoreMetrics {
    registry: MetricsRegistry,
    submitted: Counter,
    completed: Counter,
    failed: Counter,
    cancelled: Counter,
    dropped: Counter,
    snapshots: Counter,
    edges: Counter,
    decode_pairs: Counter,
    decode_scored_pairs: Counter,
    /// `vrdag_job_seconds`: each job's wall time, [`JobResult::seconds`].
    job_seconds: Histogram,
    /// `vrdag_job_stage_seconds{stage=...}`, indexed like [`STAGE_NAMES`].
    stage_seconds: [Histogram; STAGE_COUNT],
}

impl CoreMetrics {
    fn new() -> CoreMetrics {
        let registry = MetricsRegistry::new();
        crate::publish_build_info(&registry);
        let stage_seconds = std::array::from_fn(|i| {
            registry.histogram("vrdag_job_stage_seconds", &[("stage", STAGE_NAMES[i])])
        });
        let counter = |name: &str| registry.counter(name, &[]);
        CoreMetrics {
            submitted: counter("vrdag_jobs_submitted_total"),
            completed: counter("vrdag_jobs_completed_total"),
            failed: counter("vrdag_jobs_failed_total"),
            cancelled: counter("vrdag_jobs_cancelled_total"),
            dropped: counter("vrdag_jobs_dropped_total"),
            snapshots: counter("vrdag_snapshots_total"),
            edges: counter("vrdag_edges_total"),
            decode_pairs: counter("vrdag_decode_pairs_total"),
            decode_scored_pairs: counter("vrdag_decode_scored_pairs_total"),
            job_seconds: registry.histogram("vrdag_job_seconds", &[]),
            stage_seconds,
            registry,
        }
    }

    fn observe_stages(&self, stages: &StageDurations) {
        let values = [stages.queue_wait, stages.first_snapshot, stages.generation, stages.delivery];
        for (i, v) in values.iter().enumerate() {
            if let Some(d) = v {
                self.stage_seconds[i].observe(d.as_secs_f64());
            }
        }
    }

    fn stage_stats(&self) -> StageLatencyStats {
        let one = |i: usize| LatencyStats::from_snapshot(&self.stage_seconds[i].snapshot());
        StageLatencyStats {
            queue_wait: one(0),
            first_snapshot: one(1),
            generation: one(2),
            delivery: one(3),
        }
    }
}

/// State shared between handles and workers (workers hold only this, so
/// dropping the last handle — which owns the join handles — can never
/// deadlock on a worker keeping the core alive).
struct Shared {
    queue: JobQueue,
    cache: SnapshotCache,
    logger: Logger,
    metrics: CoreMetrics,
    /// Effective intra-job thread count each worker runs its jobs under
    /// (the requested/default value, clamped against oversubscription).
    intra_threads: usize,
    stats: Mutex<RunningStats>,
    /// Completion sequence; see [`JobResult::seq`].
    seq: AtomicU64,
    closed: AtomicBool,
}

impl Shared {
    /// `tenant`'s live series, registering them on first use.
    fn tenant_series(&self, tenant: &TenantId) -> Arc<TenantSeries> {
        let mut stats = self.stats.lock().expect("stats lock poisoned");
        let series = stats
            .tenants
            .entry(tenant.clone())
            .or_insert_with(|| Arc::new(TenantSeries::new(tenant, &self.metrics.registry)));
        Arc::clone(series)
    }
}

struct Core {
    shared: Arc<Shared>,
    registry: ModelRegistry,
    tenants: TenantRegistry,
    next_id: AtomicU64,
    max_queue_depth: Option<usize>,
    worker_count: usize,
    started: Instant,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Drop for Core {
    fn drop(&mut self) {
        // The last handle is gone: abort (a drop is not a drain — error
        // paths must exit promptly instead of silently finishing minutes
        // of submitted work) and join so no worker is leaked parked on
        // the condvar. Discarded jobs stay observable as `dropped_jobs`
        // right until the counters themselves go away with the core.
        self.shared.closed.store(true, Ordering::SeqCst);
        let dropped = self.shared.queue.close_discard();
        self.shared.metrics.dropped.add(dropped as u64);
        for handle in self.workers.get_mut().expect("workers lock poisoned").drain(..) {
            let _ = handle.join();
        }
    }
}

/// Cheap, clonable, `Send + Sync` front door to a running service core.
///
/// All clones share one worker pool, queue, cache, and statistics; the
/// core shuts down (abort + join) when the last clone drops. See the
/// crate docs for the lifecycle.
#[derive(Clone)]
pub struct ServeHandle {
    core: Arc<Core>,
}

impl ServeHandle {
    /// Spawn `workers` threads draining a fresh queue, with caching and
    /// admission control disabled. Fails with [`ServeError::NoWorkers`]
    /// when `workers == 0`.
    pub fn new(registry: ModelRegistry, workers: usize) -> Result<ServeHandle, ServeError> {
        ServeHandle::with_config(registry, ServeConfig { workers, ..Default::default() })
    }

    /// Spawn a pool with explicit [`ServeConfig`]. Fails with
    /// [`ServeError::NoWorkers`] when `config.workers == 0` — a pool
    /// without workers would accept jobs that can never run.
    pub fn with_config(
        registry: ModelRegistry,
        config: ServeConfig,
    ) -> Result<ServeHandle, ServeError> {
        if config.workers == 0 {
            return Err(ServeError::NoWorkers);
        }
        let metrics = CoreMetrics::new();
        let cache = SnapshotCache::new(config.cache, &metrics.registry);
        // Coalescing only pays off when finished twins can be served
        // from the cache.
        let queue = JobQueue::with_cache(cache.is_enabled().then(|| cache.clone()));
        let intra_threads = effective_intra_threads(config.workers, config.intra_threads);
        metrics.registry.gauge("vrdag_intra_threads", &[]).set(intra_threads as u64);
        let isa = vrdag_tensor::simd::isa().name();
        metrics.registry.gauge("vrdag_kernel_isa", &[("isa", isa)]).set(1);
        let shared = Arc::new(Shared {
            queue,
            cache,
            logger: config.logger.clone(),
            metrics,
            intra_threads,
            stats: Mutex::new(RunningStats::new(config.workers)),
            seq: AtomicU64::new(0),
            closed: AtomicBool::new(false),
        });
        let workers = (0..config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("vrdag-serve-worker-{i}"))
                    .spawn(move || worker_loop(i, &shared))
                    .expect("spawn worker thread")
            })
            .collect();
        Ok(ServeHandle {
            core: Arc::new(Core {
                shared,
                registry,
                tenants: config.tenants,
                next_id: AtomicU64::new(0),
                max_queue_depth: config.max_queue_depth,
                worker_count: config.workers,
                started: Instant::now(),
                workers: Mutex::new(workers),
            }),
        })
    }

    /// The tenant registry this service authenticates and schedules
    /// against. An [`auth_enabled`](TenantRegistry::auth_enabled)
    /// registry makes the TCP frontend demand an `AUTH` greeting.
    pub fn tenants(&self) -> &TenantRegistry {
        &self.core.tenants
    }

    /// The registry this service resolves model names against. Models
    /// registered or removed here are picked up by subsequent submits —
    /// the registry is shared, not snapshotted.
    pub fn registry(&self) -> &ModelRegistry {
        &self.core.registry
    }

    /// The snapshot cache shared by this service's workers.
    pub fn cache(&self) -> &SnapshotCache {
        &self.core.shared.cache
    }

    /// Jobs queued and not yet picked up by a worker.
    pub fn queue_depth(&self) -> usize {
        self.core.shared.queue.depth()
    }

    /// Worker threads the pool was built with.
    pub fn workers(&self) -> usize {
        self.core.worker_count
    }

    /// Effective intra-job thread count each worker runs its jobs under:
    /// [`ServeConfig::intra_threads`] (or the `VRDAG_THREADS`/host
    /// default), clamped so `workers × intra_threads` never exceeds the
    /// host's available parallelism. Determinism is unaffected — thread
    /// count never changes output bytes.
    pub fn intra_threads(&self) -> usize {
        self.core.shared.intra_threads
    }

    /// Enqueue a request without blocking on generation and return the
    /// [`Ticket`] its result will be delivered on. Fails fast with a
    /// typed error instead of accepting work it cannot run:
    ///
    /// * [`ServeError::SchedulerClosed`] after [`close`](Self::close) /
    ///   [`abort`](Self::abort),
    /// * [`ServeError::UnknownModel`] for unregistered names,
    /// * [`ServeError::InvalidRequest`] for `t_len == 0`,
    /// * [`ServeError::QueueFull`] when the admission cap is reached —
    ///   the caller's backpressure signal,
    /// * [`ServeError::QuotaExceeded`] when the request's *tenant* is
    ///   over one of its own quotas (rate limit, `max_inflight`,
    ///   `max_queue_share`) — per-tenant backpressure that leaves every
    ///   other tenant's admission untouched.
    pub fn submit(&self, req: GenRequest) -> Result<Ticket, ServeError> {
        if self.core.shared.closed.load(Ordering::SeqCst) {
            return Err(ServeError::SchedulerClosed);
        }
        if req.t_len == 0 {
            return Err(ServeError::InvalidRequest(
                "t_len must be >= 1 (a dynamic graph needs at least one snapshot)".into(),
            ));
        }
        let tenant: Arc<Tenant> = match &req.tenant {
            None => self.core.tenants.anonymous(),
            Some(id) => self.core.tenants.get(id).ok_or_else(|| {
                ServeError::InvalidRequest(format!("unknown tenant {:?}", id.as_str()))
            })?,
        };
        let handle = self.core.registry.resolve(&req.model)?;
        // Registered before the push, so every queued lane's tenant is
        // known to the lane gauges by the time a scrape samples them.
        let series = self.core.shared.tenant_series(tenant.id());
        if !self.core.tenants.try_acquire_rate(&tenant) {
            series.rejected.inc();
            return Err(ServeError::QuotaExceeded {
                tenant: tenant.id().to_string(),
                quota: "rate",
                cap: tenant.rate_limit.map_or(0, |r| r.per_sec.ceil() as u64),
            });
        }
        let (tx, rx) = mpsc::channel();
        let id = JobId(self.core.next_id.fetch_add(1, Ordering::SeqCst));
        let ticket = Ticket { id, model: req.model, t_len: req.t_len, seed: req.seed, rx };
        let trace = req.trace.unwrap_or_default();
        trace.mark_submitted();
        let job = Job {
            id,
            handle,
            tenant: Arc::clone(&tenant),
            t_len: req.t_len,
            seed: req.seed,
            priority: req.priority,
            sink: req.sink,
            cancel: req.cancel,
            trace,
            reply: tx,
            notify: req.notify,
        };
        match self.core.shared.queue.push_checked(job, self.core.max_queue_depth) {
            Ok(()) => {
                self.core.shared.metrics.submitted.inc();
                series.submitted.inc();
                Ok(ticket)
            }
            // A close/abort from another handle clone can win the race
            // against the pre-flight `closed` check above; that is the
            // same typed error, not a panic. A rejected job must not
            // burn the rate budget its retry will need.
            Err(crate::queue::PushRejected::Closed) => {
                self.core.tenants.refund_rate(&tenant);
                Err(ServeError::SchedulerClosed)
            }
            Err(crate::queue::PushRejected::Full { depth }) => {
                self.core.tenants.refund_rate(&tenant);
                series.rejected.inc();
                Err(ServeError::QueueFull {
                    depth,
                    cap: self.core.max_queue_depth.expect("cap enforced implies cap set"),
                })
            }
            Err(crate::queue::PushRejected::Quota { tenant: t, quota, cap }) => {
                self.core.tenants.refund_rate(&tenant);
                series.rejected.inc();
                Err(ServeError::QuotaExceeded { tenant: t.to_string(), quota, cap: cap as u64 })
            }
        }
    }

    /// Stop accepting submissions; workers finish everything already
    /// queued and then exit. Idempotent.
    pub fn close(&self) {
        self.core.shared.closed.store(true, Ordering::SeqCst);
        self.core.shared.queue.close();
    }

    /// Stop accepting submissions *and* discard queued jobs (in-flight
    /// jobs finish). Each discarded job counts into
    /// [`ServeStats::dropped_jobs`] and its ticket reports
    /// [`ServeError::JobDropped`]. Idempotent.
    pub fn abort(&self) {
        self.core.shared.closed.store(true, Ordering::SeqCst);
        let dropped = self.core.shared.queue.close_discard();
        self.core.shared.metrics.dropped.add(dropped as u64);
    }

    /// Block until every worker thread has exited. Only meaningful after
    /// [`close`](Self::close) or [`abort`](Self::abort) — otherwise the
    /// workers never exit and this blocks forever. Safe to call from
    /// multiple handles; later callers return once the first join is
    /// done.
    pub fn join_workers(&self) {
        let handles: Vec<_> =
            self.core.workers.lock().expect("workers lock poisoned").drain(..).collect();
        for handle in handles {
            handle.join().expect("worker thread panicked");
        }
    }

    /// Graceful shutdown: close, drain, join, and return the final
    /// statistics snapshot.
    pub fn shutdown(&self) -> ServeStats {
        self.close();
        self.join_workers();
        self.stats()
    }

    /// On-demand statistics snapshot; callable at any time, including
    /// while jobs are queued and executing.
    pub fn stats(&self) -> ServeStats {
        let shared = &self.core.shared;
        let (affinity, mut tenants) = {
            let stats = shared.stats.lock().expect("stats lock poisoned");
            let tenants: Vec<TenantStats> = stats
                .tenants
                .iter()
                .map(|(id, series)| {
                    let latency = series.job_seconds.snapshot();
                    TenantStats {
                        id: id.to_string(),
                        weight: self.core.tenants.get(id).map_or(1, |cfg| cfg.weight),
                        submitted: series.submitted.get(),
                        completed: series.completed.get(),
                        failed: series.failed.get(),
                        cancelled: series.cancelled.get(),
                        rejected: series.rejected.get(),
                        bytes_streamed: series.streamed_bytes.get(),
                        p50_seconds: latency.quantile(0.50),
                        p95_seconds: latency.quantile(0.95),
                    }
                })
                .collect();
            (stats.affinity(), tenants)
        };
        tenants.sort_by(|a, b| a.id.cmp(&b.id));
        let m = &shared.metrics;
        ServeStats {
            workers: self.core.worker_count,
            uptime_seconds: self.core.started.elapsed().as_secs_f64().max(1e-9),
            submitted: m.submitted.get(),
            completed: m.completed.get(),
            failed: m.failed.get(),
            cancelled: m.cancelled.get(),
            dropped_jobs: m.dropped.get(),
            queue_depth: shared.queue.depth(),
            in_flight: shared.queue.in_flight(),
            max_in_flight: shared.queue.max_in_flight(),
            snapshots: m.snapshots.get(),
            edges: m.edges.get(),
            decode: DecodeCounts {
                pairs: m.decode_pairs.get(),
                scored: m.decode_scored_pairs.get(),
            },
            cache: shared.cache.stats(),
            affinity,
            latency: LatencyStats::from_snapshot(&m.job_seconds.snapshot()),
            stages: m.stage_stats(),
            tenants,
        }
    }

    /// The structured logger this service (and any frontend built on
    /// it) emits events through; configured via [`ServeConfig::logger`].
    pub fn logger(&self) -> &Logger {
        &self.core.shared.logger
    }

    /// Whether the scheduler is still accepting submissions — `false`
    /// once [`close`](Self::close)/[`shutdown`](Self::shutdown)/
    /// [`abort`](Self::abort) ran and every [`submit`](Self::submit)
    /// would return [`ServeError::SchedulerClosed`]. This is the serve
    /// tier's `/readyz` predicate.
    pub fn is_accepting(&self) -> bool {
        !self.core.shared.closed.load(Ordering::SeqCst)
    }

    /// The metrics registry backing [`metrics_text`](Self::metrics_text).
    /// Frontends register their own families here so one `METRICS`
    /// payload covers the whole stack.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.core.shared.metrics.registry
    }

    /// Prometheus text exposition of every registered family. Counters
    /// are the live handles [`stats`](Self::stats) reads, so `METRICS`
    /// and `STATS` agree exactly; derived gauges (queue, in-flight, cache
    /// residency, uptime, tenant lanes) are sampled just before rendering.
    pub fn metrics_text(&self) -> String {
        self.refresh_metrics();
        self.core.shared.metrics.registry.render()
    }

    /// JSON rendering of the same registry state as
    /// [`metrics_text`](Self::metrics_text) (for `--metrics-json` dumps).
    pub fn metrics_json(&self) -> String {
        self.refresh_metrics();
        self.core.shared.metrics.registry.render_json()
    }

    /// Sample the derived gauges. A tenant whose lane has drained reads
    /// 0 — the queue drops empty lanes, so absence means empty.
    fn refresh_metrics(&self) {
        let shared = &self.core.shared;
        let reg = &shared.metrics.registry;
        let cache = shared.cache.stats();
        reg.gauge("vrdag_cache_entries", &[]).set(cache.entries as u64);
        reg.gauge("vrdag_cache_bytes", &[]).set(cache.bytes as u64);
        reg.gauge("vrdag_queue_depth", &[]).set(shared.queue.depth() as u64);
        reg.gauge("vrdag_jobs_inflight", &[]).set(shared.queue.in_flight() as u64);
        reg.gauge("vrdag_jobs_inflight_peak", &[]).set(shared.queue.max_in_flight() as u64);
        reg.gauge("vrdag_uptime_seconds", &[]).set(self.core.started.elapsed().as_secs());
        let lanes = shared.queue.lane_stats();
        let stats = shared.stats.lock().expect("stats lock poisoned");
        for id in stats.tenants.keys() {
            let lane = lanes.iter().find(|l| l.tenant == id.as_str());
            let labels = [("tenant", id.as_str())];
            reg.gauge("vrdag_tenant_queue_depth", &labels).set(lane.map_or(0, |l| l.queued as u64));
            reg.gauge("vrdag_tenant_lane_deficit", &labels).set(lane.map_or(0, |l| l.deficit));
        }
    }
}

/// A worker's single cached model instance: the artifact it belongs to
/// and the deserialized model. Affinity scheduling makes one instance
/// (instead of a per-model map) the right shape — switching models is
/// exactly the batch boundary.
struct WorkerInstance {
    fingerprint: u64,
    model: Vrdag,
}

/// Resolve the intra-job thread count a worker pool runs under: the
/// requested value (or the `VRDAG_THREADS`/host default) clamped so
/// `workers × intra_threads` never oversubscribes the host. At least 1.
fn effective_intra_threads(workers: usize, requested: Option<usize>) -> usize {
    let host = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    let per_worker_cap = (host / workers.max(1)).max(1);
    requested.unwrap_or_else(vrdag_tensor::par::num_threads).clamp(1, per_worker_cap)
}

fn worker_loop(worker: usize, shared: &Shared) {
    let mut instance: Option<WorkerInstance> = None;
    // Run accounting follows the *jobs* (consecutive same-model
    // stretches), not the instance: a cache-hit job for another model
    // never needs an instance, so the old one is kept until a miss
    // actually demands a different artifact (see run_job).
    while let Some(mut job) = shared.queue.pop(instance.as_ref().map(|i| i.fingerprint)) {
        job.trace.mark_dequeued();
        // Take the completion hook out of the job before run_job consumes
        // it: the hook must fire *after* the result send below, never
        // from a drop inside the job's own execution.
        let mut notify = std::mem::take(&mut job.notify);
        let fp = job.handle.fingerprint();
        {
            let mut stats = shared.stats.lock().expect("stats lock poisoned");
            if stats.open_runs[worker].0 != Some(fp) {
                stats.close_run(worker);
                stats.open_runs[worker].0 = Some(fp);
            }
        }
        let key = job_cache_key(&job.handle, job.t_len, job.seed);
        let reply = job.reply.clone();
        // User code runs inside run_job (Callback sinks): contain a
        // panic to this *job* instead of killing the worker — a dead
        // worker would strand every queued job's reply channel inside
        // the queue, deadlocking the tickets waiting on them.
        let id = job.id;
        let model_name = job.handle.name().to_string();
        let tenant = Arc::clone(&job.tenant);
        let trace = job.trace.clone();
        let (t_len, seed) = (job.t_len, job.seed);
        let sink_path = match &job.sink {
            GenSink::TsvFile(p) | GenSink::BinaryFile(p) => Some(p.clone()),
            _ => None,
        };
        let started = Instant::now();
        // The whole job runs under the pool's oversubscription clamp:
        // parallel sections inside the decode see `intra_threads` on this
        // worker thread only (the override is scoped and thread-local).
        let outcome = vrdag_tensor::par::with_threads(shared.intra_threads, || {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_job(job, &mut instance, &shared.cache)
            }))
        });
        let mut result = match outcome {
            Ok(result) => result,
            Err(payload) => {
                // The panic may have unwound mid-generation: discard the
                // cached model instance and any truncated output file.
                instance = None;
                if let Some(path) = &sink_path {
                    let _ = std::fs::remove_file(path);
                }
                JobResult {
                    id,
                    model: model_name,
                    tenant: tenant.id().clone(),
                    t_len,
                    seed,
                    snapshots: 0,
                    edges: 0,
                    decode: DecodeCounts::default(),
                    bytes: 0,
                    seconds: started.elapsed().as_secs_f64().max(1e-9),
                    snapshots_per_sec: 0.0,
                    cache_hit: false,
                    cancelled: false,
                    seq: 0,
                    graph: None,
                    error: Some(format!("job panicked: {}", panic_message(payload.as_ref()))),
                    stages: StageDurations::default(),
                }
            }
        };
        let m = &shared.metrics;
        m.completed.inc();
        if result.error.is_some() {
            m.failed.inc();
        }
        if result.cancelled {
            m.cancelled.inc();
        }
        m.snapshots.add(result.snapshots as u64);
        m.edges.add(result.edges as u64);
        m.decode_pairs.add(result.decode.pairs);
        m.decode_scored_pairs.add(result.decode.scored);
        result.seq = shared.seq.fetch_add(1, Ordering::SeqCst) + 1;
        // "Delivered" is marked at handoff (just before the ticket send
        // below) so the derived durations can ride on the result itself.
        trace.mark_delivered();
        result.stages = trace.durations();
        m.job_seconds.observe(result.seconds);
        m.observe_stages(&result.stages);
        shared.tenant_series(tenant.id()).record_result(&result);
        if result.seconds >= SLOW_JOB_WARN_SECONDS {
            shared.logger.warn(
                "serve.worker",
                "slow job",
                &[
                    ("id", id.0.to_string()),
                    ("model", result.model.clone()),
                    ("tenant", tenant.id().to_string()),
                    ("t_len", t_len.to_string()),
                    ("seed", seed.to_string()),
                    ("seconds", format!("{:.3}", result.seconds)),
                ],
            );
        }
        shared.stats.lock().expect("stats lock poisoned").open_runs[worker].1 += 1;
        // Release the queue's accounting (busy key, per-tenant
        // executing count) *before* delivering the result: a client
        // that resubmits the moment its wait() returns must never see a
        // spurious max_inflight rejection for a job it just observed
        // finishing — the same release-before-completion ordering the
        // frontend applies to its tag slots.
        shared.queue.finish_one(&key, tenant.id());
        // The caller may have dropped its ticket; completion is still
        // fully accounted above, so ignore a closed channel.
        let _ = reply.send(result);
        // Only after the result is on the channel: the reactor's
        // completion pump relies on `try_wait` resolving by the time the
        // hook runs.
        notify.fire();
    }
    // Fold the final open run into the closed totals so post-shutdown
    // snapshots see every run.
    shared.stats.lock().expect("stats lock poisoned").close_run(worker);
}

/// Best-effort text of a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn run_job(job: Job, instance: &mut Option<WorkerInstance>, cache: &SnapshotCache) -> JobResult {
    let Job {
        id,
        handle,
        tenant,
        t_len,
        seed,
        priority: _,
        mut sink,
        cancel,
        trace,
        reply: _,
        notify: _,
    } = job;
    let model_name = handle.name().to_string();
    let key = job_cache_key(&handle, t_len, seed);
    let started = Instant::now();
    let mut cache_hit = false;
    let cancel = cancel.as_ref();
    // Whether this job actually opened its sink: a job cancelled while
    // still queued never did, and must not delete whatever a *previous*
    // job left at the same output path.
    let mut touched_sink = false;
    let touched = &mut touched_sink;
    let outcome = (|| -> Result<(StreamStats, Option<Arc<DynamicGraph>>, bool), ServeError> {
        // A job whose token tripped while it sat queued never touches a
        // model instance (or the cache) at all.
        if cancel.is_some_and(CancelToken::is_cancelled) {
            return Ok((StreamStats::default(), None, true));
        }
        *touched = true;
        if cache.is_enabled() {
            if let Some(graph) = cache.get(&key) {
                // Hit: replay the cached sequence into the sink (no
                // model instance needed, so the worker's current one is
                // left alone). The determinism contract makes this
                // bit-identical to regenerating
                // (tests/cache_determinism.rs). The replay runs the same
                // loop as cold generation, so subscribers observe the
                // same frames and cancellation boundaries either way.
                cache_hit = true;
                let (stats, cancelled) =
                    stream_into_sink(Source::Replay(&graph), t_len, &mut sink, cancel, &trace)?;
                let out = (matches!(sink, GenSink::InMemory) && !cancelled).then_some(graph);
                return Ok((stats, out, cancelled));
            }
        }
        // Miss: make sure this worker's instance matches the artifact
        // (invalidated lazily, only when a miss actually needs another
        // model — the worker still holds at most one instance).
        if instance.as_ref().map(|i| i.fingerprint) != Some(handle.fingerprint()) {
            *instance = None;
            let model = handle.instantiate()?;
            *instance = Some(WorkerInstance { fingerprint: handle.fingerprint(), model });
        }
        let model = &instance.as_ref().expect("just ensured").model;
        // One generation pass: the sink streams per snapshot exactly as
        // with caching off, and the sequence is additionally retained
        // for the cache only while it fits the byte budget.
        let budget = cache.is_enabled().then(|| cache.budget().max_bytes);
        let mut collector = Collector::new(t_len, budget, matches!(sink, GenSink::InMemory));
        let mut state = model.begin_generation(&mut StdRng::seed_from_u64(seed))?;
        let source = Source::Step { model, state: &mut state, collector: &mut collector };
        let (stats, cancelled) = stream_into_sink(source, t_len, &mut sink, cancel, &trace)?;
        // A cancelled sequence is partial: it never reaches the cache or
        // the result.
        let graph = (!cancelled)
            .then_some(collector.collected)
            .flatten()
            .map(|snapshots| Arc::new(DynamicGraph::new(snapshots)));
        if cache.is_enabled() && !cancelled {
            if let Some(g) = &graph {
                // Charge the insertion against the tenant's byte share:
                // once a tenant exceeds it, its *own* LRU entries are
                // evicted first, so it can never push another tenant's
                // working set out of the cache.
                let owner_cap = tenant
                    .cache_byte_share
                    .map(|share| (share * cache.budget().max_bytes as f64) as usize);
                cache.insert_charged(key, Arc::clone(g), tenant.id().clone(), owner_cap);
            }
        }
        let out = if matches!(sink, GenSink::InMemory) && !cancelled { graph } else { None };
        Ok((stats, out, cancelled))
    })();
    let cancelled = matches!(outcome, Ok((_, _, true)));
    if (outcome.is_err() || cancelled) && touched_sink {
        // Never leave a truncated file (header promises t_len snapshots)
        // next to complete ones in the output directory.
        if let GenSink::TsvFile(path) | GenSink::BinaryFile(path) = &sink {
            let _ = std::fs::remove_file(path);
        }
    }
    let seconds = started.elapsed().as_secs_f64().max(1e-9);
    match outcome {
        Ok((stats, graph, cancelled)) => JobResult {
            id,
            model: model_name,
            tenant: tenant.id().clone(),
            t_len,
            seed,
            snapshots: stats.snapshots,
            edges: stats.edges,
            decode: stats.decode,
            bytes: stats.bytes,
            seconds,
            snapshots_per_sec: stats.snapshots as f64 / seconds,
            cache_hit,
            cancelled,
            seq: 0,
            graph,
            error: None,
            stages: StageDurations::default(),
        },
        Err(e) => JobResult {
            id,
            model: model_name,
            tenant: tenant.id().clone(),
            t_len,
            seed,
            snapshots: 0,
            edges: 0,
            decode: DecodeCounts::default(),
            bytes: 0,
            seconds,
            snapshots_per_sec: 0.0,
            cache_hit: false,
            cancelled: false,
            seq: 0,
            graph: None,
            error: Some(e.to_string()),
            stages: StageDurations::default(),
        },
    }
}

/// The emitting half of a [`GenSink`], written by the one per-snapshot
/// loop of [`stream_into_sink`] for cold and cached jobs alike. The
/// in-memory collection of [`GenSink::InMemory`] is handled by the
/// [`Collector`]; for this writer it is a no-op like [`GenSink::Discard`].
enum SinkWriter<'a> {
    Tsv(TsvStreamWriter<BufWriter<std::fs::File>>),
    Bin(BinaryStreamWriter<BufWriter<std::fs::File>>),
    Callback(&'a mut (dyn FnMut(usize, &Snapshot) + Send)),
    Null,
}

impl<'a> SinkWriter<'a> {
    fn open(
        sink: &'a mut GenSink,
        n: usize,
        f: usize,
        t_len: usize,
    ) -> Result<SinkWriter<'a>, ServeError> {
        Ok(match sink {
            GenSink::TsvFile(path) => {
                let w = BufWriter::new(std::fs::File::create(path)?);
                SinkWriter::Tsv(TsvStreamWriter::new(w, n, f, t_len)?)
            }
            GenSink::BinaryFile(path) => {
                let w = BufWriter::new(std::fs::File::create(path)?);
                SinkWriter::Bin(BinaryStreamWriter::new(w, n, f, t_len)?)
            }
            GenSink::Callback(cb) => SinkWriter::Callback(cb.as_mut()),
            GenSink::InMemory | GenSink::Discard => SinkWriter::Null,
        })
    }

    fn write(&mut self, t: usize, snapshot: &Snapshot) -> Result<(), ServeError> {
        match self {
            SinkWriter::Tsv(w) => w.write_snapshot(snapshot)?,
            SinkWriter::Bin(w) => w.write_snapshot(snapshot)?,
            SinkWriter::Callback(cb) => cb(t, snapshot),
            SinkWriter::Null => {}
        }
        Ok(())
    }

    fn finish(self) -> Result<(), ServeError> {
        match self {
            SinkWriter::Tsv(w) => {
                w.finish()?;
            }
            SinkWriter::Bin(w) => {
                w.finish()?;
            }
            SinkWriter::Callback(_) | SinkWriter::Null => {}
        }
        Ok(())
    }
}

/// Collection of a cold job's snapshots (in `t` order) for the job's
/// result and the snapshot cache. The full sequence is materialized only
/// when the caller needs it: for [`GenSink::InMemory`] (the job asked
/// for it), or opportunistically for the cache when `budget` is set, in
/// which case collection is abandoned the moment the accumulated
/// reserved bytes exceed the budget, so an uncacheable (oversized)
/// sequence never breaks the streaming sinks' memory bound.
struct Collector {
    collected: Option<Vec<Snapshot>>,
    bytes: usize,
    budget: Option<usize>,
    want_result: bool,
}

impl Collector {
    fn new(t_len: usize, budget: Option<usize>, want_result: bool) -> Collector {
        Collector {
            collected: (want_result || budget.is_some()).then(|| Vec::with_capacity(t_len)),
            bytes: 0,
            budget,
            want_result,
        }
    }

    fn push(&mut self, snapshot: Snapshot) {
        if self.collected.is_some() {
            // Reserved accounting to match the cache's admission charge.
            self.bytes += snapshot.approx_bytes_reserved();
            let over = self.budget.is_some_and(|max| self.bytes > max);
            if over && !self.want_result {
                self.collected = None;
            } else if let Some(v) = &mut self.collected {
                v.push(snapshot);
            }
        }
    }
}

/// Where a job's snapshots come from.
enum Source<'a> {
    /// Cache miss: step Algorithm 1 from `H_t`, one snapshot per step,
    /// and push each written snapshot into the collector.
    Step { model: &'a Vrdag, state: &'a mut GenerationState, collector: &'a mut Collector },
    /// Cache hit: read the cached sequence back.
    Replay(&'a DynamicGraph),
}

/// The one per-snapshot loop every job runs on its worker thread, cold
/// or cached and whatever its sink: check the cancel token, take the
/// next snapshot from `source`, write it through the sink, mark it on
/// the trace and count it. Returns the delivered stats and whether the
/// token stopped the job at a snapshot boundary, in which case the
/// writer is left unfinished (the caller removes any partial file) and
/// the caller discards the collection.
fn stream_into_sink(
    mut source: Source<'_>,
    t_len: usize,
    sink: &mut GenSink,
    cancel: Option<&CancelToken>,
    trace: &JobTrace,
) -> Result<(StreamStats, bool), ServeError> {
    let (n, f) = match &source {
        Source::Step { model, .. } => (
            model.n_nodes().expect("begin_generation succeeded"),
            model.n_attrs().expect("begin_generation succeeded"),
        ),
        Source::Replay(graph) => (graph.n_nodes(), graph.n_attrs()),
    };
    let mut writer = SinkWriter::open(sink, n, f, t_len)?;
    let mut stats = StreamStats::default();
    let mut emit = |t: usize, snapshot: &Snapshot| -> Result<(), ServeError> {
        writer.write(t, snapshot)?;
        trace.mark_snapshot();
        stats.snapshots += 1;
        stats.edges += snapshot.n_edges();
        stats.bytes += snapshot.approx_bytes();
        Ok(())
    };
    let mut cancelled = false;
    for t in 0..t_len {
        if cancel.is_some_and(CancelToken::is_cancelled) {
            cancelled = true;
            break;
        }
        match &mut source {
            Source::Step { model, state, collector } => {
                let snapshot = state.step(model);
                emit(t, &snapshot)?;
                collector.push(snapshot);
            }
            Source::Replay(graph) => emit(t, graph.snapshot(t))?,
        }
    }
    if !cancelled {
        writer.finish()?;
    }
    if let Source::Step { state, .. } = &source {
        stats.decode = state.decode_counts();
    }
    Ok((stats, cancelled))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::atomic::AtomicUsize;
    use vrdag::VrdagConfig;

    fn fitted(fit_seed: u64) -> Vrdag {
        let g = vrdag_datasets::generate(&vrdag_datasets::tiny(), fit_seed);
        let mut cfg = VrdagConfig::test_small();
        cfg.epochs = 2;
        let mut m = Vrdag::new(cfg);
        let mut rng = StdRng::seed_from_u64(fit_seed);
        m.fit(&g, &mut rng).unwrap();
        m
    }

    fn registry_with_tiny() -> (ModelRegistry, Vrdag) {
        let m = fitted(3);
        let registry = ModelRegistry::new();
        registry.register("tiny", &m).unwrap();
        (registry, m)
    }

    /// Deterministic blocker: a callback job that signals when it starts
    /// and then parks until released, pinning one worker.
    fn blocking_request(
        model: &str,
        seed: u64,
        started_tx: std::sync::mpsc::Sender<()>,
        release_rx: std::sync::mpsc::Receiver<()>,
    ) -> GenRequest {
        let mut fired = false;
        GenRequest::new(
            model,
            1,
            seed,
            GenSink::Callback(Box::new(move |_, _| {
                if !fired {
                    fired = true;
                    started_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                }
            })),
        )
    }

    #[test]
    fn submit_is_non_blocking_and_tickets_deliver_results() {
        let (registry, model) = registry_with_tiny();
        let handle = ServeHandle::new(registry, 2).unwrap();
        // Submitting never waits for generation: collect all tickets
        // first, then wait on them in any order.
        let tickets: Vec<Ticket> = (0..4u64)
            .map(|seed| handle.submit(GenRequest::new("tiny", 3, seed, GenSink::InMemory)).unwrap())
            .collect();
        for ticket in tickets.into_iter().rev() {
            let seed = ticket.seed();
            let result = ticket.wait().unwrap();
            assert!(result.is_ok(), "{:?}", result.error);
            let mut rng = StdRng::seed_from_u64(seed);
            let expected = model.generate(3, &mut rng).unwrap();
            assert_eq!(result.graph.as_deref().unwrap(), &expected, "seed {seed}");
            assert!(result.seq >= 1);
        }
        let stats = handle.stats();
        assert_eq!(stats.submitted, 4);
        assert_eq!(stats.completed, 4);
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.dropped_jobs, 0);
    }

    #[test]
    fn handle_is_clonable_and_usable_from_threads() {
        let (registry, model) = registry_with_tiny();
        let handle = ServeHandle::new(registry, 2).unwrap();
        let threads: Vec<_> = (0..3u64)
            .map(|seed| {
                let handle = handle.clone();
                std::thread::spawn(move || {
                    let ticket =
                        handle.submit(GenRequest::new("tiny", 2, seed, GenSink::InMemory)).unwrap();
                    ticket.wait().unwrap()
                })
            })
            .collect();
        for t in threads {
            let result = t.join().unwrap();
            assert!(result.is_ok());
            let mut rng = StdRng::seed_from_u64(result.seed);
            let expected = model.generate(2, &mut rng).unwrap();
            assert_eq!(result.graph.as_deref().unwrap(), &expected);
        }
    }

    #[test]
    fn try_wait_polls_without_blocking() {
        let (registry, _) = registry_with_tiny();
        let handle = ServeHandle::new(registry, 1).unwrap();
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel();
        let blocker = handle.submit(blocking_request("tiny", 0, started_tx, release_rx)).unwrap();
        started_rx.recv().unwrap();
        let mut ticket = handle.submit(GenRequest::new("tiny", 1, 1, GenSink::Discard)).unwrap();
        // Queued behind the pinned worker: polling sees nothing yet.
        assert!(ticket.try_wait().unwrap().is_none());
        assert!(ticket.wait_timeout(Duration::from_millis(10)).unwrap().is_none());
        release_tx.send(()).unwrap();
        let result = loop {
            if let Some(r) = ticket.wait_timeout(Duration::from_secs(30)).unwrap() {
                break r;
            }
        };
        assert!(result.is_ok());
        blocker.wait().unwrap();
    }

    #[test]
    fn stats_report_latency_percentiles() {
        let (registry, _) = registry_with_tiny();
        let handle = ServeHandle::new(registry, 2).unwrap();
        let tickets: Vec<Ticket> = (0..6u64)
            .map(|seed| handle.submit(GenRequest::new("tiny", 2, seed, GenSink::Discard)).unwrap())
            .collect();
        for t in tickets {
            t.wait().unwrap();
        }
        let stats = handle.stats();
        assert_eq!(stats.latency.samples, 6);
        assert!(stats.latency.p50_seconds > 0.0);
        assert!(stats.latency.p50_seconds <= stats.latency.p95_seconds);
        assert!(stats.latency.p95_seconds <= stats.latency.p99_seconds);
        assert!(stats.latency.p99_seconds <= stats.latency.max_seconds);
        let rendered = stats.render();
        assert!(rendered.contains("latency: p50"), "{rendered}");
    }

    #[test]
    fn abort_counts_dropped_jobs_and_tickets_observe_it() {
        let (registry, _) = registry_with_tiny();
        let handle = ServeHandle::new(registry, 1).unwrap();
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel();
        let blocker = handle.submit(blocking_request("tiny", 0, started_tx, release_rx)).unwrap();
        started_rx.recv().unwrap();
        let queued: Vec<Ticket> = (1..4u64)
            .map(|seed| handle.submit(GenRequest::new("tiny", 1, seed, GenSink::Discard)).unwrap())
            .collect();
        handle.abort();
        release_tx.send(()).unwrap();
        // The in-flight blocker still completes; the queued jobs were
        // discarded, observable both on the tickets and in the stats.
        assert!(blocker.wait().unwrap().is_ok());
        for ticket in queued {
            assert!(matches!(ticket.wait(), Err(ServeError::JobDropped)));
        }
        handle.join_workers();
        let stats = handle.stats();
        assert_eq!(stats.dropped_jobs, 3);
        assert_eq!(stats.completed, 1);
        assert!(matches!(
            handle.submit(GenRequest::new("tiny", 1, 9, GenSink::Discard)),
            Err(ServeError::SchedulerClosed)
        ));
    }

    #[test]
    fn service_stays_live_across_waves_and_stats_accumulate() {
        // The core outlives any single "batch": submit, drain, submit
        // again — no re-construction, stats keep accumulating.
        let (registry, _) = registry_with_tiny();
        let handle = ServeHandle::with_config(
            registry,
            ServeConfig { workers: 2, cache: CacheBudget::entries(8), ..Default::default() },
        )
        .unwrap();
        for wave in 0..3u64 {
            let tickets: Vec<Ticket> = (0..2u64)
                .map(|seed| {
                    handle.submit(GenRequest::new("tiny", 2, seed, GenSink::InMemory)).unwrap()
                })
                .collect();
            for t in tickets {
                assert!(t.wait().unwrap().is_ok());
            }
            let stats = handle.stats();
            assert_eq!(stats.completed, 2 * (wave + 1));
        }
        let stats = handle.shutdown();
        assert_eq!(stats.completed, 6);
        // Waves 2 and 3 were served from the cache.
        assert_eq!(stats.cache.misses, 2);
        assert_eq!(stats.cache.hits, 4);
    }

    /// The decode pair counters cover cold snapshots only, whatever the
    /// sink, and a cache hit adds nothing to them.
    #[test]
    fn decode_counters_count_cold_snapshots_only() {
        let (registry, model) = registry_with_tiny();
        let n = model.n_nodes().unwrap() as u64;
        let handle = ServeHandle::with_config(
            registry,
            ServeConfig { workers: 1, cache: CacheBudget::entries(8), ..Default::default() },
        )
        .unwrap();
        let run = |t_len: usize, seed: u64, sink: GenSink| {
            handle.submit(GenRequest::new("tiny", t_len, seed, sink)).unwrap().wait().unwrap()
        };
        let cold = run(3, 1, GenSink::InMemory);
        assert!(!cold.cache_hit);
        assert_eq!(cold.decode.pairs, 3 * n * (n - 1));
        assert!(0 < cold.decode.scored && cold.decode.scored <= cold.decode.pairs);
        let hit = run(3, 1, GenSink::InMemory);
        assert!(hit.cache_hit);
        assert_eq!(hit.decode, DecodeCounts::default());
        let streamed = run(2, 2, GenSink::Callback(Box::new(|_, _| {})));
        assert_eq!(streamed.decode.pairs, 2 * n * (n - 1));
        let mut state = model.begin_generation(&mut StdRng::seed_from_u64(2)).unwrap();
        for _ in 0..2 {
            state.step(&model);
        }
        assert_eq!(streamed.decode, state.decode_counts());
        let stats = handle.shutdown();
        assert_eq!(stats.decode.pairs, cold.decode.pairs + streamed.decode.pairs);
        assert_eq!(stats.decode.scored, cold.decode.scored + streamed.decode.scored);
    }

    #[test]
    fn dropping_the_last_handle_aborts_and_joins() {
        let (registry, _) = registry_with_tiny();
        let handle = ServeHandle::new(registry, 2).unwrap();
        let clone = handle.clone();
        drop(handle);
        // The clone keeps the core alive and working.
        let t = clone.submit(GenRequest::new("tiny", 1, 0, GenSink::Discard)).unwrap();
        assert!(t.wait().unwrap().is_ok());
        drop(clone); // joins workers; must not hang
    }

    #[test]
    fn intra_thread_clamp_never_oversubscribes() {
        let host = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
        // As many workers as cores: each job gets exactly one thread no
        // matter how many were requested.
        assert_eq!(effective_intra_threads(host, Some(8)), 1.max(host / host));
        // A single worker may use the request, up to the host.
        let one = effective_intra_threads(1, Some(4));
        assert!(one >= 1 && one <= 4.max(host));
        // workers × intra_threads never exceeds the host (workers ≤ host).
        for workers in 1..=host {
            let eff = effective_intra_threads(workers, Some(usize::MAX));
            assert!(
                workers * eff <= host,
                "workers {workers} × intra {eff} oversubscribes host {host}"
            );
        }
        // Defaults are at least 1 and the knob is surfaced on the handle.
        assert!(effective_intra_threads(2, None) >= 1);
        let (registry, _) = registry_with_tiny();
        let handle = ServeHandle::with_config(
            registry,
            ServeConfig { workers: 1, intra_threads: Some(3), ..Default::default() },
        )
        .unwrap();
        assert_eq!(handle.intra_threads(), effective_intra_threads(1, Some(3)));
        assert!(handle.intra_threads() >= 1);
        // So is the instruction set the kernels were dispatched to.
        let text = handle.metrics_text();
        let isa = vrdag_tensor::simd::isa().name();
        assert_eq!(sample(&text, &format!("vrdag_kernel_isa{{isa=\"{isa}\"}}")), Some(1), "{text}");
        assert_eq!(text.matches("vrdag_kernel_isa{").count(), 1, "{text}");
    }

    #[test]
    fn callback_runs_on_the_worker_thread_in_order_and_bit_identical_cold_and_cached() {
        // Every job streams on its worker thread: a callback sink sees
        // the worker's name, and frames arrive strictly in t order with
        // the exact per-step content of a direct generate() call, both
        // for a cold run and for the cache hit that replays it.
        let (registry, model) = registry_with_tiny();
        let handle = ServeHandle::with_config(
            registry,
            ServeConfig {
                workers: 1,
                intra_threads: Some(4),
                cache: CacheBudget::entries(4),
                ..Default::default()
            },
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let expected = model.generate(6, &mut rng).unwrap();
        let want: Vec<(usize, usize)> = expected.iter().map(|(t, s)| (t, s.n_edges())).collect();
        for cache_hit in [false, true] {
            let seen: Arc<Mutex<Vec<(usize, usize)>>> = Arc::new(Mutex::new(Vec::new()));
            let threads: Arc<Mutex<Vec<Option<String>>>> = Arc::new(Mutex::new(Vec::new()));
            let (seen_in_cb, threads_in_cb) = (Arc::clone(&seen), Arc::clone(&threads));
            let ticket = handle
                .submit(GenRequest::new(
                    "tiny",
                    6,
                    42,
                    GenSink::Callback(Box::new(move |t, s| {
                        seen_in_cb.lock().unwrap().push((t, s.n_edges()));
                        let name = std::thread::current().name().map(str::to_string);
                        threads_in_cb.lock().unwrap().push(name);
                    })),
                ))
                .unwrap();
            let result = ticket.wait().unwrap();
            assert!(result.is_ok(), "{:?}", result.error);
            assert_eq!(result.cache_hit, cache_hit);
            assert!(result.stages.generation.is_some());
            assert_eq!(*seen.lock().unwrap(), want, "frames out of order or diverged");
            let threads = threads.lock().unwrap();
            assert_eq!(threads.len(), 6);
            for name in threads.iter() {
                assert_eq!(name.as_deref(), Some("vrdag-serve-worker-0"), "hit={cache_hit}");
            }
        }
    }

    #[test]
    fn panicking_callback_sink_fails_the_job_not_the_worker() {
        // A user callback that panics must be contained to its job: the
        // single worker survives, the panicking job resolves with a
        // typed error, and jobs queued behind it still run (a dead
        // worker would strand their reply channels forever).
        let (registry, _) = registry_with_tiny();
        let handle = ServeHandle::new(registry, 1).unwrap();
        let bomb = handle
            .submit(GenRequest::new(
                "tiny",
                1,
                0,
                GenSink::Callback(Box::new(|_, _| panic!("sink exploded"))),
            ))
            .unwrap();
        let follow = handle.submit(GenRequest::new("tiny", 2, 1, GenSink::InMemory)).unwrap();
        let failed = bomb.wait().unwrap();
        assert!(!failed.is_ok());
        assert!(failed.error.as_deref().unwrap().contains("sink exploded"), "{:?}", failed.error);
        let ok = follow.wait().unwrap();
        assert!(ok.is_ok(), "{:?}", ok.error);
        let stats = handle.shutdown();
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.failed, 1);
    }

    #[test]
    fn cancel_while_queued_short_circuits_without_generating() {
        let (registry, _) = registry_with_tiny();
        let handle = ServeHandle::new(registry, 1).unwrap();
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel();
        let blocker = handle.submit(blocking_request("tiny", 0, started_tx, release_rx)).unwrap();
        started_rx.recv().unwrap();
        let token = CancelToken::new();
        let delivered = Arc::new(AtomicUsize::new(0));
        let delivered_in_cb = Arc::clone(&delivered);
        let victim = handle
            .submit(
                GenRequest::new(
                    "tiny",
                    3,
                    1,
                    GenSink::Callback(Box::new(move |_, _| {
                        delivered_in_cb.fetch_add(1, Ordering::SeqCst);
                    })),
                )
                .with_cancel(token.clone()),
            )
            .unwrap();
        token.cancel();
        release_tx.send(()).unwrap();
        blocker.wait().unwrap();
        let result = victim.wait().unwrap();
        assert!(result.cancelled);
        assert!(result.is_ok(), "cancellation is not a failure: {:?}", result.error);
        assert_eq!(result.snapshots, 0, "queued-cancelled jobs never generate");
        assert_eq!(delivered.load(Ordering::SeqCst), 0);
        let stats = handle.shutdown();
        assert_eq!(stats.cancelled, 1);
        assert_eq!(stats.failed, 0);
    }

    #[test]
    fn cancel_mid_generation_stops_at_a_snapshot_boundary() {
        let (registry, _) = registry_with_tiny();
        let handle = ServeHandle::with_config(
            registry,
            ServeConfig { workers: 1, cache: CacheBudget::entries(8), ..Default::default() },
        )
        .unwrap();
        let token = CancelToken::new();
        let t_len = 500usize;
        // Trip the token from inside the sink after two snapshots: the
        // loop must stop at the next boundary, deliver exactly 2, and
        // leave the cache unpopulated (a partial sequence is not a
        // cacheable value).
        let token_in_cb = token.clone();
        let ticket = handle
            .submit(
                GenRequest::new(
                    "tiny",
                    t_len,
                    0,
                    GenSink::Callback(Box::new(move |t, _| {
                        if t == 1 {
                            token_in_cb.cancel();
                        }
                    })),
                )
                .with_cancel(token),
            )
            .unwrap();
        let result = ticket.wait().unwrap();
        assert!(result.cancelled);
        assert_eq!(result.snapshots, 2, "stopped at the boundary after the trip");
        assert!(result.is_ok());
        assert_eq!(handle.cache().stats().entries, 0, "cancelled runs never enter the cache");
        // The same key afterwards generates in full.
        let full = handle
            .submit(GenRequest::new("tiny", 3, 0, GenSink::InMemory))
            .unwrap()
            .wait()
            .unwrap();
        assert!(full.is_ok());
        assert!(!full.cancelled);
        assert_eq!(full.snapshots, 3);
    }

    #[test]
    fn cancelled_file_sink_removes_partial_output_but_spares_untouched_paths() {
        let (registry, _) = registry_with_tiny();
        let handle = ServeHandle::new(registry, 1).unwrap();
        let dir = std::env::temp_dir().join("vrdag_cancel_test");
        std::fs::create_dir_all(&dir).unwrap();

        // A job cancelled *mid-generation* removes its own partial file:
        // wait until the streaming writer has created the file (the job
        // is provably past the queued-shortcut), then trip the token.
        let partial = dir.join("partial.tsv");
        let token = CancelToken::new();
        let ticket = handle
            .submit(
                GenRequest::new("tiny", 2000, 0, GenSink::TsvFile(partial.clone()))
                    .with_cancel(token.clone()),
            )
            .unwrap();
        for _ in 0..2000 {
            if partial.exists() {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(partial.exists(), "the job never started writing");
        token.cancel();
        let result = ticket.wait().unwrap();
        assert!(result.cancelled);
        assert!(!partial.exists(), "no truncated file may survive a cancellation");

        // A job cancelled while still *queued* never opened its sink and
        // must not delete whatever a previous job wrote at that path.
        let existing = dir.join("existing.tsv");
        std::fs::write(&existing, b"previous job's complete output").unwrap();
        let token = CancelToken::new();
        token.cancel();
        let ticket = handle
            .submit(
                GenRequest::new("tiny", 4, 0, GenSink::TsvFile(existing.clone()))
                    .with_cancel(token),
            )
            .unwrap();
        let result = ticket.wait().unwrap();
        assert!(result.cancelled);
        assert_eq!(
            std::fs::read(&existing).unwrap(),
            b"previous job's complete output",
            "a queued-cancelled job must not touch pre-existing files"
        );
    }

    fn two_tier_tenants() -> TenantRegistry {
        TenantRegistry::builder()
            .tenant(
                crate::tenant::Tenant::new(TenantId::new("gold").unwrap()).with_weight(3),
                "tok-gold",
            )
            .unwrap()
            .tenant(crate::tenant::Tenant::new(TenantId::new("bronze").unwrap()), "tok-bronze")
            .unwrap()
            .build()
    }

    #[test]
    fn weighted_fair_scheduling_drains_tenants_in_proportion() {
        // One worker, cache off, weights 3:1, identical job mixes. While
        // both lanes hold work, completions must interleave ~3 gold per
        // bronze — regardless of submission order (bronze submits
        // first).
        let (registry, _) = registry_with_tiny();
        let handle = ServeHandle::with_config(
            registry,
            ServeConfig { workers: 1, tenants: two_tier_tenants(), ..Default::default() },
        )
        .unwrap();
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel();
        let blocker = handle.submit(blocking_request("tiny", 0, started_tx, release_rx)).unwrap();
        started_rx.recv().unwrap();
        let per_tenant = 16usize;
        let mut tickets = Vec::new();
        for i in 0..per_tenant as u64 {
            for id in ["bronze", "gold"] {
                tickets.push(
                    handle
                        .submit(
                            GenRequest::new(
                                "tiny",
                                1,
                                100 + 2 * i + (id == "gold") as u64,
                                GenSink::Discard,
                            )
                            .with_tenant(TenantId::new(id).unwrap()),
                        )
                        .unwrap(),
                );
            }
        }
        release_tx.send(()).unwrap();
        blocker.wait().unwrap();
        let mut results: Vec<JobResult> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
        results.sort_by_key(|r| r.seq);
        // While both lanes are non-empty (the first 2 * min window), the
        // DRR pattern is one bronze per three gold.
        let window = &results[..8];
        let gold = window.iter().filter(|r| r.tenant.as_str() == "gold").count();
        let bronze = window.len() - gold;
        assert!(
            (5..=7).contains(&gold) && bronze >= 1,
            "expected ~6:2 gold:bronze in the first 8 completions, got {gold}:{bronze}"
        );
        let window = &results[..16];
        let gold = window.iter().filter(|r| r.tenant.as_str() == "gold").count();
        assert!(
            (11..=13).contains(&gold),
            "expected ~12:4 gold:bronze in the first 16 completions, got {gold}"
        );
        // Everything eventually completes for both tenants.
        let stats = handle.shutdown();
        assert_eq!(stats.completed as usize, 1 + 2 * per_tenant);
        let row = |id: &str| stats.tenants.iter().find(|t| t.id == id).unwrap().clone();
        assert_eq!(row("gold").completed as usize, per_tenant);
        assert_eq!(row("bronze").completed as usize, per_tenant);
        assert_eq!(row("gold").weight, 3);
        assert!(row("gold").bytes_streamed > 0);
        assert!(row("gold").p50_seconds > 0.0);
        assert!(stats.render().contains("tenants:"), "{}", stats.render());
    }

    #[test]
    fn heavy_jobs_cost_more_than_light_ones_in_the_fair_share() {
        // Equal weights, but tenant `gold` submits t=8 jobs while
        // `bronze` submits t=1 jobs: DRR costs by snapshots, so bronze
        // must complete ~8 jobs per gold job instead of alternating.
        let (registry, _) = registry_with_tiny();
        let tenants = TenantRegistry::builder()
            .tenant(crate::tenant::Tenant::new(TenantId::new("gold").unwrap()), "tok-gold")
            .unwrap()
            .tenant(crate::tenant::Tenant::new(TenantId::new("bronze").unwrap()), "tok-bronze")
            .unwrap()
            .build();
        let handle = ServeHandle::with_config(
            registry,
            ServeConfig { workers: 1, tenants, ..Default::default() },
        )
        .unwrap();
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel();
        let blocker = handle.submit(blocking_request("tiny", 0, started_tx, release_rx)).unwrap();
        started_rx.recv().unwrap();
        let mut tickets = Vec::new();
        for i in 0..4u64 {
            tickets.push(
                handle
                    .submit(
                        GenRequest::new("tiny", 8, 200 + i, GenSink::Discard)
                            .with_tenant(TenantId::new("gold").unwrap()),
                    )
                    .unwrap(),
            );
        }
        for i in 0..16u64 {
            tickets.push(
                handle
                    .submit(
                        GenRequest::new("tiny", 1, 300 + i, GenSink::Discard)
                            .with_tenant(TenantId::new("bronze").unwrap()),
                    )
                    .unwrap(),
            );
        }
        release_tx.send(()).unwrap();
        blocker.wait().unwrap();
        let mut results: Vec<JobResult> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
        results.sort_by_key(|r| r.seq);
        // In the first 9 completions (one gold 8-snapshot job's worth of
        // fair share each) bronze must have landed ~8 jobs.
        let window = &results[..9];
        let bronze = window.iter().filter(|r| r.tenant.as_str() == "bronze").count();
        assert!(
            bronze >= 6,
            "snapshot-cost fairness violated: only {bronze} bronze jobs in the first 9"
        );
    }

    #[test]
    fn tenant_quotas_reject_typed_and_leave_others_unaffected() {
        let (registry, _) = registry_with_tiny();
        let tenants = TenantRegistry::builder()
            .tenant(
                crate::tenant::Tenant::new(TenantId::new("capped").unwrap()).with_max_inflight(2),
                "tok-capped",
            )
            .unwrap()
            .build();
        let handle = ServeHandle::with_config(
            registry,
            ServeConfig { workers: 1, tenants, ..Default::default() },
        )
        .unwrap();
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel();
        let blocker = handle.submit(blocking_request("tiny", 0, started_tx, release_rx)).unwrap();
        started_rx.recv().unwrap();
        let capped = TenantId::new("capped").unwrap();
        let a = handle
            .submit(GenRequest::new("tiny", 1, 1, GenSink::Discard).with_tenant(capped.clone()))
            .unwrap();
        let b = handle
            .submit(GenRequest::new("tiny", 1, 2, GenSink::Discard).with_tenant(capped.clone()))
            .unwrap();
        // Third outstanding job breaches max_inflight = 2 (queued +
        // executing count together).
        match handle
            .submit(GenRequest::new("tiny", 1, 3, GenSink::Discard).with_tenant(capped.clone()))
        {
            Err(ServeError::QuotaExceeded { tenant, quota, cap }) => {
                assert_eq!(tenant, "capped");
                assert_eq!(quota, "max_inflight");
                assert_eq!(cap, 2);
            }
            other => panic!("expected QuotaExceeded, got {other:?}"),
        }
        // The anonymous tenant is untouched by capped's quota.
        let anon = handle.submit(GenRequest::new("tiny", 1, 4, GenSink::Discard)).unwrap();
        release_tx.send(()).unwrap();
        blocker.wait().unwrap();
        assert!(a.wait().unwrap().is_ok());
        assert!(b.wait().unwrap().is_ok());
        assert!(anon.wait().unwrap().is_ok());
        // With the backlog drained, the quota frees up again.
        let retry = handle
            .submit(GenRequest::new("tiny", 1, 5, GenSink::Discard).with_tenant(capped.clone()))
            .unwrap();
        assert!(retry.wait().unwrap().is_ok());
        let stats = handle.shutdown();
        let row = stats.tenants.iter().find(|t| t.id == "capped").unwrap();
        assert_eq!(row.submitted, 3);
        assert_eq!(row.completed, 3);
        assert_eq!(row.rejected, 1);
    }

    #[test]
    fn tenant_queue_share_is_a_fraction_of_the_global_cap() {
        let (registry, _) = registry_with_tiny();
        let tenants = TenantRegistry::builder()
            .tenant(
                crate::tenant::Tenant::new(TenantId::new("half").unwrap())
                    .with_max_queue_share(0.5),
                "tok-half",
            )
            .unwrap()
            .build();
        let handle = ServeHandle::with_config(
            registry,
            ServeConfig { workers: 1, max_queue_depth: Some(4), tenants, ..Default::default() },
        )
        .unwrap();
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel();
        let blocker = handle.submit(blocking_request("tiny", 0, started_tx, release_rx)).unwrap();
        started_rx.recv().unwrap();
        let half = TenantId::new("half").unwrap();
        let mut held = Vec::new();
        for seed in 0..2u64 {
            held.push(
                handle
                    .submit(
                        GenRequest::new("tiny", 1, seed, GenSink::Discard)
                            .with_tenant(half.clone()),
                    )
                    .unwrap(),
            );
        }
        // Share 0.5 of cap 4 = 2 queued slots: the third is refused even
        // though the global queue still has room.
        match handle
            .submit(GenRequest::new("tiny", 1, 9, GenSink::Discard).with_tenant(half.clone()))
        {
            Err(ServeError::QuotaExceeded { quota: "queue_share", cap: 2, .. }) => {}
            other => panic!("expected queue_share QuotaExceeded, got {other:?}"),
        }
        // Anonymous fills the remaining global room, then QueueFull.
        held.push(handle.submit(GenRequest::new("tiny", 1, 10, GenSink::Discard)).unwrap());
        held.push(handle.submit(GenRequest::new("tiny", 1, 11, GenSink::Discard)).unwrap());
        assert!(matches!(
            handle.submit(GenRequest::new("tiny", 1, 12, GenSink::Discard)),
            Err(ServeError::QueueFull { .. })
        ));
        release_tx.send(()).unwrap();
        blocker.wait().unwrap();
        for t in held {
            assert!(t.wait().unwrap().is_ok());
        }
    }

    #[test]
    fn tenant_rate_limit_rejects_and_refunds_on_other_failures() {
        let (registry, _) = registry_with_tiny();
        let tenants = TenantRegistry::builder()
            .tenant(
                crate::tenant::Tenant::new(TenantId::new("slow").unwrap())
                    .with_rate_limit(0.0, 2.0),
                "tok-slow",
            )
            .unwrap()
            .build();
        let handle = ServeHandle::with_config(
            registry,
            ServeConfig { workers: 1, tenants, ..Default::default() },
        )
        .unwrap();
        let slow = TenantId::new("slow").unwrap();
        // A submit rejected for another reason (unknown model) must not
        // burn rate budget — the burst of 2 below is still intact.
        assert!(matches!(
            handle
                .submit(GenRequest::new("ghost", 1, 0, GenSink::Discard).with_tenant(slow.clone())),
            Err(ServeError::UnknownModel(_))
        ));
        let a = handle
            .submit(GenRequest::new("tiny", 1, 1, GenSink::Discard).with_tenant(slow.clone()))
            .unwrap();
        let b = handle
            .submit(GenRequest::new("tiny", 1, 2, GenSink::Discard).with_tenant(slow.clone()))
            .unwrap();
        match handle
            .submit(GenRequest::new("tiny", 1, 3, GenSink::Discard).with_tenant(slow.clone()))
        {
            Err(ServeError::QuotaExceeded { quota: "rate", .. }) => {}
            other => panic!("expected rate QuotaExceeded, got {other:?}"),
        }
        assert!(a.wait().unwrap().is_ok());
        assert!(b.wait().unwrap().is_ok());
    }

    #[test]
    fn unknown_tenant_is_a_typed_submit_error() {
        let (registry, _) = registry_with_tiny();
        let handle = ServeHandle::new(registry, 1).unwrap();
        assert!(matches!(
            handle.submit(
                GenRequest::new("tiny", 1, 0, GenSink::Discard)
                    .with_tenant(TenantId::new("ghost").unwrap())
            ),
            Err(ServeError::InvalidRequest(_))
        ));
    }

    #[test]
    fn dropped_ticket_does_not_stall_the_worker() {
        let (registry, _) = registry_with_tiny();
        let handle = ServeHandle::new(registry, 1).unwrap();
        let ran = Arc::new(AtomicUsize::new(0));
        let ran_in_cb = Arc::clone(&ran);
        let ticket = handle
            .submit(GenRequest::new(
                "tiny",
                1,
                0,
                GenSink::Callback(Box::new(move |_, _| {
                    ran_in_cb.fetch_add(1, Ordering::SeqCst);
                })),
            ))
            .unwrap();
        drop(ticket); // fire-and-forget
        let follow = handle.submit(GenRequest::new("tiny", 1, 1, GenSink::Discard)).unwrap();
        assert!(follow.wait().unwrap().is_ok());
        assert_eq!(ran.load(Ordering::SeqCst), 1, "forgotten job still ran");
        assert_eq!(handle.stats().completed, 2);
    }

    /// The value of one exposition sample (`series` includes its labels).
    fn sample(text: &str, series: &str) -> Option<u64> {
        text.lines().find_map(|l| l.strip_prefix(series)?.strip_prefix(' ')?.parse().ok())
    }

    #[test]
    fn drained_tenant_lanes_read_zero_in_the_exposition() {
        let (registry, _) = registry_with_tiny();
        let handle = ServeHandle::with_config(
            registry,
            ServeConfig { workers: 1, tenants: two_tier_tenants(), ..Default::default() },
        )
        .unwrap();
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel();
        let blocker = handle.submit(blocking_request("tiny", 0, started_tx, release_rx)).unwrap();
        started_rx.recv().unwrap();
        let gold = TenantId::new("gold").unwrap();
        let tickets: Vec<Ticket> = (1..=3u64)
            .map(|seed| {
                let req = GenRequest::new("tiny", 1, seed, GenSink::Discard);
                handle.submit(req.with_tenant(gold.clone())).unwrap()
            })
            .collect();
        let depth = "vrdag_tenant_queue_depth{tenant=\"gold\"}";
        let text = handle.metrics_text();
        assert_eq!(sample(&text, depth), Some(3), "{text}");
        release_tx.send(()).unwrap();
        blocker.wait().unwrap();
        for ticket in tickets {
            assert!(ticket.wait().unwrap().is_ok());
        }
        assert_eq!(handle.queue_depth(), 0);
        let text = handle.metrics_text();
        assert_eq!(sample(&text, depth), Some(0), "a drained lane must read 0\n{text}");
        assert_eq!(sample(&text, "vrdag_tenant_lane_deficit{tenant=\"gold\"}"), Some(0));
    }

    #[test]
    fn tenant_stats_equal_their_registry_series() {
        // Deterministic two-tenant workload behind a blocker: gold fills
        // its in-flight quota and is refused once; bronze has one job
        // cancelled while queued, one failing sink and one success.
        let (registry, _) = registry_with_tiny();
        let tenants = TenantRegistry::builder()
            .tenant(
                crate::tenant::Tenant::new(TenantId::new("gold").unwrap()).with_max_inflight(3),
                "tok-gold",
            )
            .unwrap()
            .tenant(crate::tenant::Tenant::new(TenantId::new("bronze").unwrap()), "tok-bronze")
            .unwrap()
            .build();
        let handle = ServeHandle::with_config(
            registry,
            ServeConfig { workers: 1, tenants, ..Default::default() },
        )
        .unwrap();
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel();
        let blocker = handle.submit(blocking_request("tiny", 0, started_tx, release_rx)).unwrap();
        started_rx.recv().unwrap();
        let (gold, bronze) = (TenantId::new("gold").unwrap(), TenantId::new("bronze").unwrap());
        let mut tickets = Vec::new();
        for seed in 1..=3u64 {
            let req = GenRequest::new("tiny", 2, seed, GenSink::InMemory).with_tenant(gold.clone());
            tickets.push(handle.submit(req).unwrap());
        }
        let refused = GenRequest::new("tiny", 2, 4, GenSink::InMemory).with_tenant(gold.clone());
        assert!(matches!(handle.submit(refused), Err(ServeError::QuotaExceeded { .. })));
        let token = CancelToken::new();
        let cancelled = GenRequest::new("tiny", 2, 5, GenSink::InMemory).with_cancel(token.clone());
        let bomb =
            GenRequest::new("tiny", 1, 6, GenSink::Callback(Box::new(|_, _| panic!("boom"))));
        let ok = GenRequest::new("tiny", 3, 7, GenSink::InMemory);
        for req in [cancelled, bomb, ok] {
            tickets.push(handle.submit(req.with_tenant(bronze.clone())).unwrap());
        }
        token.cancel();
        release_tx.send(()).unwrap();
        blocker.wait().unwrap();
        for ticket in tickets {
            ticket.wait().unwrap();
        }

        let stats = handle.stats();
        let text = handle.metrics_text();
        let row = |id: &str| stats.tenants.iter().find(|t| t.id == id).unwrap().clone();
        for t in ["gold", "bronze"].map(row) {
            let jobs = |outcome: &str| {
                let series =
                    format!("vrdag_tenant_jobs_total{{outcome=\"{outcome}\",tenant=\"{}\"}}", t.id);
                sample(&text, &series)
            };
            assert_eq!(jobs("submitted"), Some(t.submitted), "{text}");
            assert_eq!(jobs("completed"), Some(t.completed), "{text}");
            assert_eq!(jobs("failed"), Some(t.failed), "{text}");
            assert_eq!(jobs("cancelled"), Some(t.cancelled), "{text}");
            assert_eq!(jobs("rejected"), Some(t.rejected), "{text}");
            let bytes = format!("vrdag_tenant_streamed_bytes_total{{tenant=\"{}\"}}", t.id);
            assert_eq!(sample(&text, &bytes), Some(t.bytes_streamed), "{text}");
        }
        // And the workload's shape pins the values themselves.
        let counts = |t: TenantStats| (t.submitted, t.completed, t.failed, t.cancelled, t.rejected);
        assert_eq!(counts(row("gold")), (3, 3, 0, 0, 1));
        assert_eq!(counts(row("bronze")), (3, 3, 1, 1, 0));
        assert!(row("gold").bytes_streamed > 0 && row("bronze").bytes_streamed > 0);
    }

    /// A batch the way a batch caller drains one: wait on every ticket,
    /// shut the core down, and order the results by completion.
    fn drain(handle: &ServeHandle, tickets: Vec<Ticket>) -> (Vec<JobResult>, ServeStats) {
        let mut jobs: Vec<JobResult> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
        jobs.sort_by_key(|j| j.seq);
        (jobs, handle.shutdown())
    }

    fn all_ok(jobs: &[JobResult]) -> bool {
        jobs.iter().all(JobResult::is_ok)
    }

    #[test]
    fn jobs_match_direct_generation() {
        let (registry, model) = registry_with_tiny();
        let handle = ServeHandle::new(registry, 2).unwrap();
        let tickets = [5u64, 6, 7, 8].map(|seed| {
            handle.submit(GenRequest::new("tiny", 3, seed, GenSink::InMemory)).unwrap()
        });
        let (jobs, stats) = drain(&handle, tickets.into());
        assert!(all_ok(&jobs), "{jobs:?}");
        assert_eq!(jobs.len(), 4);
        for job in &jobs {
            let mut rng = StdRng::seed_from_u64(job.seed);
            let expected = model.generate(3, &mut rng).unwrap();
            assert_eq!(job.graph.as_deref().unwrap(), &expected, "seed {}", job.seed);
            assert_eq!(job.snapshots, 3);
            assert!(!job.cache_hit, "caching is off by default");
        }
        assert_eq!(stats.cache.hits + stats.cache.misses, 0);
    }

    #[test]
    fn unknown_model_fails_at_submit() {
        let (registry, _) = registry_with_tiny();
        let handle = ServeHandle::new(registry, 1).unwrap();
        let err = handle.submit(GenRequest::new("missing", 1, 0, GenSink::Discard));
        assert!(matches!(err, Err(ServeError::UnknownModel(_))));
        assert_eq!(handle.shutdown().completed, 0);
    }

    #[test]
    fn zero_workers_is_a_typed_error() {
        let (registry, _) = registry_with_tiny();
        match ServeHandle::new(registry, 0) {
            Err(ServeError::NoWorkers) => {}
            Err(other) => panic!("expected NoWorkers, got {other:?}"),
            Ok(_) => panic!("expected NoWorkers, got a handle"),
        }
    }

    #[test]
    fn zero_t_len_is_rejected_at_submit() {
        let (registry, _) = registry_with_tiny();
        let handle = ServeHandle::new(registry, 1).unwrap();
        assert!(matches!(
            handle.submit(GenRequest::new("tiny", 0, 0, GenSink::Discard)),
            Err(ServeError::InvalidRequest(_))
        ));
        assert_eq!(handle.shutdown().completed, 0);
    }

    #[test]
    fn two_jobs_run_concurrently() {
        // Deterministic concurrency proof: both jobs block in their
        // callback sink until the *other* job has produced its first
        // snapshot. This only completes if two workers execute
        // simultaneously.
        let (registry, _) = registry_with_tiny();
        let handle = ServeHandle::new(registry, 2).unwrap();
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let tickets = [1u64, 2].map(|seed| {
            let barrier = Arc::clone(&barrier);
            let mut synced = false;
            handle
                .submit(GenRequest::new(
                    "tiny",
                    2,
                    seed,
                    GenSink::Callback(Box::new(move |_, _| {
                        if !synced {
                            barrier.wait();
                            synced = true;
                        }
                    })),
                ))
                .unwrap()
        });
        let (jobs, stats) = drain(&handle, tickets.into());
        assert!(all_ok(&jobs), "{jobs:?}");
        assert!(
            stats.max_in_flight >= 2,
            "expected >=2 jobs in flight, saw {}",
            stats.max_in_flight
        );
    }

    #[test]
    fn repeated_requests_hit_the_cache_and_match() {
        let (registry, model) = registry_with_tiny();
        let handle = ServeHandle::with_config(
            registry,
            ServeConfig {
                workers: 1, // deterministic hit accounting
                cache: CacheBudget::entries(8),
                ..Default::default()
            },
        )
        .unwrap();
        let mut tickets = Vec::new();
        for _round in 0..3 {
            for seed in [10u64, 11] {
                tickets.push(
                    handle.submit(GenRequest::new("tiny", 3, seed, GenSink::InMemory)).unwrap(),
                );
            }
        }
        let (jobs, stats) = drain(&handle, tickets);
        assert!(all_ok(&jobs), "{jobs:?}");
        assert_eq!(stats.cache.misses, 2, "first round misses");
        assert_eq!(stats.cache.hits, 4, "later rounds hit");
        assert_eq!(jobs.iter().filter(|j| j.cache_hit).count(), 4);
        for job in &jobs {
            let mut rng = StdRng::seed_from_u64(job.seed);
            let expected = model.generate(3, &mut rng).unwrap();
            assert_eq!(job.graph.as_deref().unwrap(), &expected, "seed {}", job.seed);
            assert_eq!(job.snapshots, 3);
            assert_eq!(job.edges, expected.temporal_edge_count());
        }
    }

    #[test]
    fn concurrent_identical_requests_coalesce_into_one_generation() {
        // Two workers, two identical requests: without coalescing both
        // could miss and regenerate; with it, exactly one generates and
        // the twin is served from the cache — deterministically.
        let (registry, model) = registry_with_tiny();
        let handle = ServeHandle::with_config(
            registry,
            ServeConfig { workers: 2, cache: CacheBudget::entries(4), ..Default::default() },
        )
        .unwrap();
        let tickets = [33u64, 33].map(|seed| {
            handle.submit(GenRequest::new("tiny", 3, seed, GenSink::InMemory)).unwrap()
        });
        let (jobs, stats) = drain(&handle, tickets.into());
        assert!(all_ok(&jobs), "{jobs:?}");
        assert_eq!(stats.cache.misses, 1, "{stats:?}");
        assert_eq!(stats.cache.hits, 1, "{stats:?}");
        let mut rng = StdRng::seed_from_u64(33);
        let expected = model.generate(3, &mut rng).unwrap();
        for job in &jobs {
            assert_eq!(job.graph.as_deref().unwrap(), &expected);
        }
    }

    #[test]
    fn blocked_duplicate_does_not_inflate_group_priority() {
        // Regression: a coalescing-blocked high-priority duplicate must
        // not lend its priority to the group — cross-group selection
        // compares *runnable* priorities only.
        let a = fitted(3);
        let b = fitted(4);
        let registry = ModelRegistry::new();
        registry.register("a", &a).unwrap();
        registry.register("b", &b).unwrap();
        let handle = ServeHandle::with_config(
            registry,
            ServeConfig { workers: 2, cache: CacheBudget::entries(8), ..Default::default() },
        )
        .unwrap();
        // Pin both workers: worker 1 on model a (key K = a/1/0), worker
        // 2 on model b (key M = b/1/9).
        let mut tickets = Vec::new();
        let (k_started_tx, k_started_rx) = std::sync::mpsc::channel();
        let (k_release_tx, k_release_rx) = std::sync::mpsc::channel();
        tickets.push(handle.submit(blocking_request("a", 0, k_started_tx, k_release_rx)).unwrap());
        let (m_started_tx, m_started_rx) = std::sync::mpsc::channel();
        let (m_release_tx, m_release_rx) = std::sync::mpsc::channel();
        tickets.push(handle.submit(blocking_request("b", 9, m_started_tx, m_release_rx)).unwrap());
        k_started_rx.recv().unwrap();
        m_started_rx.recv().unwrap();
        // Queue: a duplicate of K at priority 10 (blocked while K is in
        // flight), a priority-0 model-a job, a priority-5 model-b job.
        let mut submit = |req: GenRequest| {
            let ticket = handle.submit(req).unwrap();
            let id = ticket.id();
            tickets.push(ticket);
            id
        };
        let dup = submit(GenRequest::new("a", 1, 0, GenSink::Discard).with_priority(10));
        let low = submit(GenRequest::new("a", 1, 1, GenSink::Discard));
        let high = submit(GenRequest::new("b", 1, 2, GenSink::Discard).with_priority(5));
        // Release only worker 2: it must run the runnable priority-5
        // model-b job before the priority-0 model-a job, even though the
        // blocked duplicate makes model a's raw group max 10.
        m_release_tx.send(()).unwrap();
        loop {
            // Wait (bounded by the test harness timeout) until worker 2
            // has drained both runnable jobs; the duplicate stays queued.
            if handle.queue_depth() == 1 {
                break;
            }
            std::thread::yield_now();
        }
        k_release_tx.send(()).unwrap();
        let (jobs, _) = drain(&handle, tickets);
        assert!(all_ok(&jobs), "{jobs:?}");
        let pos = |id: JobId| jobs.iter().position(|j| j.id == id).unwrap();
        // Worker 2 drains both runnable jobs sequentially: the runnable
        // priority-5 job must beat the priority-0 one despite the
        // blocked priority-10 duplicate in the latter's group.
        assert!(pos(high) < pos(low), "priority 5 must run before priority 0\n{jobs:?}");
        // The duplicate stayed blocked until its twin K completed, then
        // was served from K's cache entry.
        assert!(pos(JobId(0)) < pos(dup), "duplicate ran before its twin\n{jobs:?}");
        assert!(jobs[pos(dup)].cache_hit, "{jobs:?}");
    }

    #[test]
    fn oversized_sequences_are_not_retained_for_the_cache() {
        // A byte budget below one sequence: generation must still
        // succeed and stream, but nothing is admitted and repeated
        // requests keep regenerating.
        let (registry, model) = registry_with_tiny();
        let handle = ServeHandle::with_config(
            registry,
            ServeConfig {
                workers: 1,
                cache: CacheBudget { max_entries: 8, max_bytes: 64 },
                ..Default::default()
            },
        )
        .unwrap();
        let tickets = [GenSink::InMemory, GenSink::Discard]
            .map(|sink| handle.submit(GenRequest::new("tiny", 3, 13, sink)).unwrap());
        let (jobs, stats) = drain(&handle, tickets.into());
        assert!(all_ok(&jobs), "{jobs:?}");
        assert_eq!(stats.cache.misses, 2, "oversized entries never admitted");
        assert_eq!(stats.cache.entries, 0);
        // The InMemory job still got its (oversized) sequence — the
        // budget bounds the cache, not an explicit request.
        let mut rng = StdRng::seed_from_u64(13);
        let expected = model.generate(3, &mut rng).unwrap();
        let with_graph = jobs.iter().find(|j| j.graph.is_some()).unwrap();
        assert_eq!(with_graph.graph.as_deref().unwrap(), &expected);
    }

    #[test]
    fn cache_hits_replay_into_file_sinks() {
        let dir = std::env::temp_dir().join("vrdag_core_cache_replay");
        std::fs::create_dir_all(&dir).unwrap();
        let (registry, model) = registry_with_tiny();
        let handle = ServeHandle::with_config(
            registry,
            ServeConfig { workers: 1, cache: CacheBudget::entries(4), ..Default::default() },
        )
        .unwrap();
        // Warm the cache, then serve the same sequence to a file.
        let path = dir.join("replayed.tsv");
        let tickets = [GenSink::Discard, GenSink::TsvFile(path.clone())]
            .map(|sink| handle.submit(GenRequest::new("tiny", 3, 21, sink)).unwrap());
        let (jobs, stats) = drain(&handle, tickets.into());
        assert!(all_ok(&jobs), "{jobs:?}");
        assert_eq!(stats.cache.hits, 1);
        let on_disk = vrdag_graph::io::load_tsv(&path).unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        assert_eq!(on_disk, model.generate(3, &mut rng).unwrap());
    }

    #[test]
    fn queue_depth_cap_rejects_with_typed_error() {
        let (registry, _) = registry_with_tiny();
        let handle = ServeHandle::with_config(
            registry,
            ServeConfig { workers: 1, max_queue_depth: Some(2), ..Default::default() },
        )
        .unwrap();
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel();
        let mut tickets =
            vec![handle.submit(blocking_request("tiny", 0, started_tx, release_rx)).unwrap()];
        // Wait until the blocker is in flight, so the queue is empty.
        started_rx.recv().unwrap();
        assert_eq!(handle.queue_depth(), 0);
        for seed in [1u64, 2] {
            tickets
                .push(handle.submit(GenRequest::new("tiny", 1, seed, GenSink::Discard)).unwrap());
        }
        match handle.submit(GenRequest::new("tiny", 1, 3, GenSink::Discard)) {
            Err(ServeError::QueueFull { depth: 2, cap: 2 }) => {}
            other => panic!("expected QueueFull, got {other:?}"),
        }
        release_tx.send(()).unwrap();
        let (jobs, _) = drain(&handle, tickets);
        // The rejected job never ran; the results stay consistent.
        assert!(all_ok(&jobs), "{jobs:?}");
        assert_eq!(jobs.len(), 3);
        let mut seeds: Vec<u64> = jobs.iter().map(|j| j.seed).collect();
        seeds.sort_unstable();
        assert_eq!(seeds, vec![0, 1, 2]);
    }

    #[test]
    fn affinity_groups_same_model_jobs_and_priority_preempts() {
        // Two genuinely different artifacts. One worker; a blocker on
        // model A holds it while we queue interleaved traffic.
        let a = fitted(3);
        let b = fitted(4);
        let service = || {
            let registry = ModelRegistry::new();
            registry.register("a", &a).unwrap();
            registry.register("b", &b).unwrap();
            ServeHandle::new(registry, 1).unwrap()
        };
        let handle = service();
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel();
        let blocker = handle.submit(blocking_request("a", 0, started_tx, release_rx)).unwrap();
        started_rx.recv().unwrap();
        // Equal-priority interleaved jobs: affinity should drain all of
        // model a before touching model b.
        let queued = [("a", 1u64), ("b", 2), ("a", 3), ("b", 4)]
            .map(|(m, seed)| handle.submit(GenRequest::new(m, 1, seed, GenSink::Discard)).unwrap());
        let [a1, b1, a2, b2] = queued.each_ref().map(Ticket::id);
        release_tx.send(()).unwrap();
        let (jobs, stats) = drain(&handle, [blocker].into_iter().chain(queued).collect());
        assert!(all_ok(&jobs), "{jobs:?}");
        let order: Vec<JobId> = jobs.iter().map(|j| j.id).collect();
        // Completion order: blocker, then a's batch, then b's batch.
        assert_eq!(order[1..], [a1, a2, b1, b2], "{jobs:?}");
        assert_eq!(stats.affinity.batches, 2, "{:?}", stats.affinity);
        assert_eq!(stats.affinity.max_batch_len, 3);

        // Second service: a higher-priority model b job beats affinity.
        let handle = service();
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel();
        let blocker = handle.submit(blocking_request("a", 0, started_tx, release_rx)).unwrap();
        started_rx.recv().unwrap();
        let low = handle.submit(GenRequest::new("a", 1, 1, GenSink::Discard)).unwrap();
        let high =
            handle.submit(GenRequest::new("b", 1, 2, GenSink::Discard).with_priority(5)).unwrap();
        let (low_id, high_id) = (low.id(), high.id());
        release_tx.send(()).unwrap();
        let (jobs, _) = drain(&handle, vec![blocker, low, high]);
        assert!(all_ok(&jobs), "{jobs:?}");
        let order: Vec<JobId> = jobs.iter().map(|j| j.id).collect();
        assert_eq!(order[1..], [high_id, low_id], "priority must beat affinity");
    }
}
