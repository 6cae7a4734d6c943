//! TCP frontend for the pipelined line protocol of
//! [`protocol`](crate::protocol): the event loop of
//! [`reactor`](crate::reactor) in **serve mode**. The loop accepts,
//! parses newline-delimited requests and gates `AUTH`; this module's
//! dispatch submits `GEN`/`SUB` jobs to the shared [`ServeHandle`] and
//! turns each finished job into its reply frame — routed back to its
//! connection by *tag*, not arrival order.
//!
//! One loop thread owns the listener and every connection through a
//! vendored readiness poller ([`vrdag_poll`] — `epoll(7)` on Linux, a
//! portable scan loop elsewhere); all job completions drain through the
//! loop's completion pump instead of a waiter thread each, so an idle
//! connection costs a socket and a couple hundred bytes of state — the
//! C10K+ cost model.
//!
//! The frontend stays deliberately thin: all scheduling, caching,
//! coalescing, and admission control live in the service core. What it
//! owns is *demultiplexing* (tags, the in-flight table), *encoding*
//! (buffered `GEN` payloads and per-snapshot `EVT` chunks), and *error
//! translation* — every [`ServeError`] becomes a structured
//! `ERR <code> …` line on the same connection, so a saturated queue
//! ([`ServeError::QueueFull`]) is a backpressure *response*, never a
//! dropped connection. [`FrontendConfig::max_connections`] is enforced
//! at admission: a connection beyond the cap is greeted with
//! `ERR too-many-connections cap=<c>` and closed — written through the
//! event loop like any other frame, so even that greeting cannot block
//! the accept path.

use crate::codec::FrameScanner;
use crate::core::{CancelToken, GenRequest, GenSink, JobResult, ServeHandle, Ticket};
use crate::protocol::{EndStatus, ErrorCode, GenSpec, ReplyHeader, Request, WireFormat};
use crate::reactor::{self, Cx, Dispatch, Frame, LoopHandle, LoopMetrics, Pump, SendFail};
use crate::tenant::{TenantId, TenantRegistry};
use crate::ServeError;
use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use vrdag_graph::io::{BinaryStreamWriter, TsvStreamWriter};
use vrdag_graph::{DynamicGraph, Snapshot};
use vrdag_obs::{mint_trace_id, Counter, Logger, Span, SpanRecorder};
use vrdag_poll::{raw_fd, Backend};

/// Construction-time knobs of a [`Frontend`].
#[derive(Clone, Debug)]
pub struct FrontendConfig {
    /// Admission limit on concurrently open connections: one beyond the
    /// cap is greeted with `ERR too-many-connections cap=<c>` and
    /// closed. `None` disables the cap (the descriptor limit still
    /// applies — see `vrdag_poll::os::raise_nofile_limit`).
    pub max_connections: Option<usize>,
    /// How many `GEN`/`SUB` jobs one connection may keep in flight at
    /// once; the excess is answered with `ERR too-many-inflight …`
    /// (retry when an outstanding tag resolves).
    pub max_inflight_per_conn: usize,
    /// Internal-hop mode, for a backend sitting behind a
    /// [`Router`](crate::Router) that already terminated tenant `AUTH`:
    /// the frontend stops demanding tokens (its tenant registry is kept
    /// for quota/weight lookups only) and honours the router's
    /// `tenant=` assertion on `GEN`/`SUB` lines. **Trusts every peer
    /// that can connect** — bind such a frontend to loopback or a
    /// private network only. Off by default; a frontend that does not
    /// trust the hop rejects `tenant=` with `ERR invalid-request`. The
    /// same trust rule governs the `trace=` assertion (see
    /// [`GenSpec::trace`](crate::protocol::GenSpec)).
    pub trust_tenant_assertion: bool,
    /// Ring of completed request [`Span`](vrdag_obs::Span)s the frontend
    /// records into — one span per finished `GEN`/`SUB`, keyed by the
    /// request's trace id. Share one recorder across frontends (or with
    /// an HTTP listener's `/traces` endpoint) by cloning the handle;
    /// the default is a fresh [`vrdag_obs::span::DEFAULT_SPAN_RING`]-deep
    /// ring.
    pub spans: SpanRecorder,
}

impl Default for FrontendConfig {
    fn default() -> Self {
        FrontendConfig {
            max_connections: Some(4096),
            max_inflight_per_conn: 32,
            trust_tenant_assertion: false,
            spans: SpanRecorder::default(),
        }
    }
}

/// Accept backlog requested for a listener: connection storms (the
/// C10K smoke opens thousands at once) queue in the kernel instead of
/// seeing ECONNREFUSED while the loop drains the accept queue.
const LISTEN_BACKLOG: i32 = 4096;

/// Bind a non-blocking listener with the widened accept backlog.
pub(crate) fn listen(addr: impl ToSocketAddrs) -> io::Result<TcpListener> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    // Best effort: `std` listens with a modest backlog; widen it so a
    // connection storm queues instead of bouncing.
    let _ = vrdag_poll::os::widen_backlog(raw_fd(&listener), LISTEN_BACKLOG);
    Ok(listener)
}

/// The TCP line-protocol frontend: one event-loop thread accepting and
/// serving every connection, submitting into the shared service core.
/// Dropping (or [`shutdown`](Frontend::shutdown)) stops the loop,
/// severs open connections, and joins the thread — the core itself
/// stays up for other handles.
pub struct Frontend {
    local_addr: SocketAddr,
    event_loop: LoopHandle,
    poller_name: &'static str,
    /// The span ring completed requests are recorded into.
    spans: SpanRecorder,
}

impl Frontend {
    /// Bind `addr` with the default [`FrontendConfig`]. Use port 0 for
    /// an ephemeral port (see [`local_addr`](Self::local_addr)).
    pub fn bind(handle: ServeHandle, addr: impl ToSocketAddrs) -> io::Result<Frontend> {
        Frontend::bind_with(handle, addr, FrontendConfig::default())
    }

    /// Bind `addr` with explicit limits and start serving.
    pub fn bind_with(
        handle: ServeHandle,
        addr: impl ToSocketAddrs,
        cfg: FrontendConfig,
    ) -> io::Result<Frontend> {
        let listener = listen(addr)?;
        let local_addr = listener.local_addr()?;
        // epoll on Linux, the portable scan loop elsewhere; the
        // `VRDAG_POLLER` environment variable overrides the choice.
        let poller = vrdag_poll::create(Backend::Auto)?;
        let poller_name = poller.name();
        handle.logger().info(
            "serve.frontend",
            "listening",
            &[
                ("addr", local_addr.to_string()),
                ("workers", handle.workers().to_string()),
                ("poller", poller_name.to_string()),
            ],
        );
        let metrics = handle.metrics();
        let loop_metrics = LoopMetrics::new(metrics.gauge("vrdag_open_connections", &[]), metrics);
        let spans = cfg.spans.clone();
        let event_loop = reactor::spawn(
            "vrdag-serve-reactor",
            listener,
            poller,
            cfg.max_connections,
            loop_metrics,
            |pump| Serve::new(handle, cfg, pump),
        );
        Ok(Frontend { local_addr, event_loop, poller_name, spans })
    }

    /// The address the frontend is actually listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Connections currently being served.
    pub fn open_connections(&self) -> usize {
        self.event_loop.open_connections()
    }

    /// Name of the readiness backend the loop is polling with
    /// (`"epoll"` / `"scan"`).
    pub fn poller(&self) -> &'static str {
        self.poller_name
    }

    /// The ring of completed request spans this frontend records into
    /// (a clone of [`FrontendConfig::spans`]) — feed it to an HTTP
    /// listener's `/traces` endpoint or inspect it in tests.
    pub fn spans(&self) -> &SpanRecorder {
        &self.spans
    }

    /// Stop the event loop, sever open connections, and join the loop
    /// thread. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        self.event_loop.shutdown();
    }
}

impl Drop for Frontend {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Serialize `graph` in the requested wire format with the same
/// [`WireChunker`] a `SUB` stream uses, so a buffered `GEN` payload is
/// the concatenation of that stream's `EVT` chunks. TSV is
/// byte-identical to `vrdag_graph::io::write_tsv` and binary to
/// `vrdag_graph::io::encode_binary`, so a TCP reply equals what a
/// direct [`ServeHandle`] caller would encode.
fn encode_graph(graph: &DynamicGraph, fmt: WireFormat) -> Result<Vec<u8>, ServeError> {
    let mut chunker = WireChunker::new(fmt, graph.n_nodes(), graph.n_attrs(), graph.t_len())?;
    for (_, s) in graph.iter() {
        chunker.write(s)?;
    }
    Ok(chunker.take())
}

/// Incremental wire encoder over an in-memory buffer, built on the
/// exact same streaming writers as the file sinks. A `SUB` stream takes
/// the buffer after every snapshot, so each `EVT` frame carries exactly
/// the bytes that snapshot contributed (the format header lands in the
/// first chunk); a buffered `GEN` takes it once at the end.
enum WireChunker {
    Tsv(TsvStreamWriter<Vec<u8>>),
    Bin(BinaryStreamWriter<Vec<u8>>),
}

impl WireChunker {
    fn new(fmt: WireFormat, n: usize, f: usize, t_len: usize) -> Result<WireChunker, ServeError> {
        Ok(match fmt {
            WireFormat::Tsv => WireChunker::Tsv(TsvStreamWriter::new(Vec::new(), n, f, t_len)?),
            WireFormat::Bin => WireChunker::Bin(BinaryStreamWriter::new(Vec::new(), n, f, t_len)?),
        })
    }

    /// Encode one snapshot into the buffer.
    fn write(&mut self, s: &Snapshot) -> Result<(), ServeError> {
        match self {
            WireChunker::Tsv(w) => w.write_snapshot(s)?,
            WireChunker::Bin(w) => w.write_snapshot(s)?,
        }
        Ok(())
    }

    /// Drain the bytes encoded since the last take.
    fn take(&mut self) -> Vec<u8> {
        std::mem::take(match self {
            WireChunker::Tsv(w) => w.get_mut(),
            WireChunker::Bin(w) => w.get_mut(),
        })
    }
}

/// Translate a service error into its wire code; the message is the
/// error's display form except for `QueueFull`, which gets structured
/// `depth=… cap=…` fields a client can parse and back off on.
fn translate(err: &ServeError) -> (ErrorCode, String) {
    match err {
        ServeError::QueueFull { depth, cap } => {
            (ErrorCode::QueueFull, format!("depth={depth} cap={cap}"))
        }
        ServeError::QuotaExceeded { tenant, quota, cap } => {
            (ErrorCode::QuotaExceeded, format!("tenant={tenant} limit={quota} cap={cap}"))
        }
        ServeError::UnknownModel(name) => (ErrorCode::UnknownModel, format!("{name:?}")),
        ServeError::InvalidRequest(msg) => (ErrorCode::InvalidRequest, msg.clone()),
        ServeError::SchedulerClosed | ServeError::JobDropped => {
            (ErrorCode::Shutdown, err.to_string())
        }
        other => (ErrorCode::Internal, other.to_string()),
    }
}

fn translated_frame(err: &ServeError, tag: Option<String>) -> Frame {
    let (code, message) = translate(err);
    Frame::err(code, tag, message)
}

/// Key of one in-flight job in a connection's table: the client's tag,
/// or a connection-internal counter for untagged jobs (no wire syntax
/// can name those, but teardown still cancels them).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum SlotKey {
    Tag(String),
    Untagged(u64),
}

/// What a completion for an in-flight slot should be turned into.
enum PendingKind {
    /// Buffered `GEN`: encode the result, answer `OK GEN …` + payload.
    Gen { tag: Option<String>, fmt: WireFormat, trace: TraceCtx },
    /// `SUB` stream: terminate with `END …` carrying the frames actually
    /// handed to the connection (see `dispatch_sub`).
    Sub { tag: String, sent: Arc<AtomicUsize>, trace: TraceCtx },
}

/// Trace identity of one in-flight request: the id echoed on its
/// terminal frame and keyed into the span ring, plus whether it was
/// propagated by an upstream router hop (as opposed to minted here —
/// the recorded span's `parent` field derives from this).
#[derive(Clone)]
struct TraceCtx {
    id: String,
    propagated: bool,
}

impl TraceCtx {
    /// The upstream tier that minted a propagated id. The only tier
    /// that stamps `trace=` on the internal hop today is the router.
    fn parent(&self) -> Option<&'static str> {
        self.propagated.then_some("route")
    }
}

/// One in-flight job on one connection.
struct Pending {
    kind: PendingKind,
    token: CancelToken,
    ticket: Ticket,
}

/// Serve-mode state of one connection.
#[derive(Default)]
struct ServeConn {
    pending: HashMap<SlotKey, Pending>,
    /// Counter for server-assigned `~<n>` tags (untagged `SUB`s).
    auto_tag: u64,
    /// Counter keying untagged in-flight jobs.
    next_untagged: u64,
}

/// The serve dispatch mode: requests become jobs on a [`ServeHandle`].
struct Serve {
    handle: ServeHandle,
    cfg: FrontendConfig,
    /// Does the service demand `AUTH` as the first line?
    auth_required: bool,
    pump: Pump<SlotKey>,
    logger: Logger,
    evt_frames: Counter,
    evt_bytes: Counter,
    sub_stalls: Counter,
}

impl Serve {
    fn new(handle: ServeHandle, cfg: FrontendConfig, pump: Pump<SlotKey>) -> Serve {
        let metrics = handle.metrics();
        Serve {
            // An internal frontend (behind a router that already
            // terminated AUTH) keeps its tenant registry for quota and
            // weight lookups but never demands tokens on the hop.
            auth_required: handle.tenants().auth_enabled() && !cfg.trust_tenant_assertion,
            logger: handle.logger().clone(),
            evt_frames: metrics.counter("vrdag_evt_frames_total", &[]),
            evt_bytes: metrics.counter("vrdag_evt_bytes_total", &[]),
            sub_stalls: metrics.counter("vrdag_sub_stalls_total", &[]),
            pump,
            cfg,
            handle,
        }
    }

    /// The completion hook a submission arms: post the pump message.
    /// Also fires when `submit` *rejects* the request (the hook drops
    /// with it) — the pump ignores the unknown key, and a key re-used by
    /// a later job is disambiguated by its ticket still being
    /// unresolved.
    fn completion_hook(
        &self,
        cx: &Cx<'_, ServeConn>,
        key: SlotKey,
    ) -> impl FnOnce() + Send + 'static {
        let pump = self.pump.clone();
        let (idx, serial) = (cx.idx, cx.serial);
        move || pump.post(idx, serial, key)
    }

    /// Record the serve-tier span of one finished job into the
    /// frontend's span ring ([`FrontendConfig::spans`]): the trace id
    /// keys it against the router's relay span of the same request.
    fn record_span(&self, trace: &TraceCtx, result: &JobResult, outcome: &'static str) {
        let model_fp = self.handle.registry().get(&result.model).map(|h| h.fingerprint());
        self.cfg.spans.record(Span {
            trace: trace.id.clone(),
            tier: "serve",
            parent: trace.parent(),
            tenant: Some(result.tenant.to_string()),
            model: result.model.clone(),
            model_fp,
            seed: result.seed,
            outcome,
            backend: None,
            stages_ms: Span::stages_from(&result.stages),
        });
    }

    /// Resolve the tenant a GEN/SUB submission runs as: the
    /// connection's authenticated tenant, unless the request carries an
    /// internal-hop `tenant=` assertion *and* this frontend was
    /// configured to trust the hop
    /// ([`FrontendConfig::trust_tenant_assertion`]). On an untrusted
    /// hop the assertion is rejected outright — a client can never
    /// impersonate a tenant by stamping the field itself.
    fn resolve_tenant(
        &self,
        cx: &Cx<'_, ServeConn>,
        asserted: Option<String>,
        tag: Option<&str>,
    ) -> Result<TenantId, Frame> {
        match asserted {
            None => Ok(cx.tenant.id().clone()),
            Some(id) if self.cfg.trust_tenant_assertion => match TenantId::new(&id) {
                Some(tenant) => Ok(tenant),
                // Parsing already enforced the shared alphabet; kept
                // defensive so a grammar drift can't panic the loop.
                None => Err(Frame::err(
                    ErrorCode::InvalidRequest,
                    tag.map(str::to_string),
                    format!("invalid tenant id {id:?}"),
                )),
            },
            Some(_) => Err(Frame::err(
                ErrorCode::InvalidRequest,
                tag.map(str::to_string),
                "tenant= is an internal-hop assertion; this frontend does not trust it",
            )),
        }
    }

    /// Resolve the trace id a GEN/SUB runs under: a propagated
    /// internal-hop `trace=` assertion when this frontend trusts the
    /// hop (the router already minted the id upstream), or a freshly
    /// minted id otherwise — this frontend is then the first tier to
    /// see the request. Like `tenant=`, the assertion is rejected
    /// outright on an untrusted hop so a client can never forge a
    /// trace id into the fleet's span rings.
    fn resolve_trace(
        &self,
        asserted: Option<String>,
        tag: Option<&str>,
    ) -> Result<TraceCtx, Frame> {
        match asserted {
            None => Ok(TraceCtx { id: mint_trace_id(), propagated: false }),
            Some(id) if self.cfg.trust_tenant_assertion => Ok(TraceCtx { id, propagated: true }),
            Some(_) => Err(Frame::err(
                ErrorCode::InvalidRequest,
                tag.map(str::to_string),
                "trace= is an internal-hop assertion; this frontend does not trust it",
            )),
        }
    }

    /// Claim an in-flight slot. A duplicate tag is the more specific
    /// failure: report it even when the connection is also at its
    /// in-flight cap.
    fn reserve(&self, conn: &mut ServeConn, tag: Option<&String>) -> Result<SlotKey, Frame> {
        if let Some(tag) = tag {
            if conn.pending.contains_key(&SlotKey::Tag(tag.clone())) {
                return Err(Frame::err(
                    ErrorCode::DuplicateTag,
                    Some(tag.clone()),
                    format!("tag {tag} is already in flight on this connection"),
                ));
            }
        }
        let inflight = conn.pending.len();
        let cap = self.cfg.max_inflight_per_conn;
        if inflight >= cap {
            return Err(Frame::err(
                ErrorCode::TooManyInflight,
                tag.cloned(),
                format!("inflight={inflight} cap={cap}"),
            ));
        }
        Ok(match tag {
            Some(tag) => SlotKey::Tag(tag.clone()),
            None => {
                let key = conn.next_untagged;
                conn.next_untagged += 1;
                SlotKey::Untagged(key)
            }
        })
    }

    /// Buffered generation: submit with an `InMemory` sink and park the
    /// slot in the in-flight table; the completion pump answers
    /// `OK GEN [tag=…] …` + payload when the ticket resolves — out of
    /// submission order whenever a later job finishes first.
    fn dispatch_gen(&self, cx: &mut Cx<'_, ServeConn>, spec: GenSpec) -> Result<(), Frame> {
        let GenSpec { model, t_len, seed, fmt, priority, tag, tenant, trace } = spec;
        let run_as = self.resolve_tenant(cx, tenant, tag.as_deref())?;
        let trace = self.resolve_trace(trace, tag.as_deref())?;
        let key = self.reserve(cx.state, tag.as_ref())?;
        let token = CancelToken::new();
        let req = GenRequest::new(model, t_len, seed, GenSink::InMemory)
            .with_priority(priority)
            .with_cancel(token.clone())
            .with_tenant(run_as)
            .with_notify(self.completion_hook(cx, key.clone()));
        // A rejected request parked nothing, so the hook it fired on
        // its way out finds no pending entry and the pump ignores it.
        let ticket = self.handle.submit(req).map_err(|e| translated_frame(&e, tag.clone()))?;
        cx.state
            .pending
            .insert(key, Pending { kind: PendingKind::Gen { tag, fmt, trace }, token, ticket });
        Ok(())
    }

    /// Streaming generation: acknowledge with `OK SUB tag=…`, submit
    /// with a callback sink that pushes one `EVT` frame per snapshot
    /// into the connection's outbox straight from the worker (cold and
    /// cache-hit paths both go through it), and park the slot; the
    /// completion pump terminates the stream with
    /// `END … status=ok|cancelled` (or `ERR … tag=…`).
    fn dispatch_sub(&self, cx: &mut Cx<'_, ServeConn>, spec: GenSpec) -> Result<(), Frame> {
        let GenSpec { model, t_len, seed, fmt, priority, tag, tenant, trace } = spec;
        // The assertions are checked before the ack so a rejected hop
        // never opens a stream.
        let run_as = self.resolve_tenant(cx, tenant, tag.as_deref())?;
        let trace = self.resolve_trace(trace, tag.as_deref())?;
        // Server-assigned tags skip any `~<n>` a client chose to put in
        // flight itself (the grammar permits `~`), so an untagged SUB is
        // never spuriously rejected as a duplicate.
        let conn = &mut *cx.state;
        let tag = tag.unwrap_or_else(|| loop {
            conn.auto_tag += 1;
            let candidate = format!("~{}", conn.auto_tag);
            if !conn.pending.contains_key(&SlotKey::Tag(candidate.clone())) {
                break candidate;
            }
        });
        let key = self.reserve(conn, Some(&tag))?;
        let token = CancelToken::new();
        // The ack must precede the first EVT frame, and EVT frames are
        // pushed by a worker the moment the job starts — so ack before
        // submitting. If admission then fails (including unknown model
        // names — submit resolves the registry), the stream terminates
        // with `ERR <code> tag=…` like any other failed subscription.
        let ack = ReplyHeader::Sub { tag: tag.clone(), model: model.clone(), t_len, seed, fmt };
        cx.push(Frame::header(ack));
        // EVT frames actually handed to the connection: the END frame
        // reports this count (not the core's generated count), so the
        // stream stays self-consistent even when cancellation races a
        // snapshot that was generated but never framed.
        let sent = Arc::new(AtomicUsize::new(0));
        let sink = {
            let shared = Arc::clone(cx.out);
            let idx = cx.idx;
            let tag = tag.clone();
            let token = token.clone();
            let sent = Arc::clone(&sent);
            let logger = self.logger.clone();
            let evt_frames = self.evt_frames.clone();
            let evt_bytes = self.evt_bytes.clone();
            let sub_stalls = self.sub_stalls.clone();
            let pump = self.pump.clone();
            // Built lazily from the first snapshot's own shape, so the
            // stream header can never disagree with the stream (a
            // pre-submit registry lookup could race a concurrent
            // re-register of the model under a different shape).
            let mut chunker: Option<WireChunker> = None;
            GenSink::Callback(Box::new(move |snap, s| {
                let chunker = match &mut chunker {
                    Some(chunker) => chunker,
                    None => match WireChunker::new(fmt, s.n_nodes(), s.n_attrs(), t_len) {
                        Ok(built) => chunker.insert(built),
                        Err(_) => {
                            token.cancel();
                            return;
                        }
                    },
                };
                match chunker.write(s).map(|()| chunker.take()) {
                    Ok(payload) => {
                        let bytes = payload.len();
                        let header = ReplyHeader::Evt { tag: tag.clone(), snap, of: t_len, bytes };
                        // This push runs inside a core worker: it parks
                        // while the outbox is full but aborts the moment
                        // the token trips or the connection dies, so a
                        // stalled subscriber can never pin the worker
                        // past a CANCEL.
                        match shared.push_streaming(&token, Frame::new(header, payload)) {
                            Ok(()) => {
                                sent.fetch_add(1, Ordering::SeqCst);
                                evt_frames.inc();
                                evt_bytes.add(bytes as u64);
                                pump.dirty(idx, &shared);
                            }
                            Err(fail) => {
                                if matches!(fail, SendFail::Stalled) {
                                    sub_stalls.inc();
                                    logger.warn(
                                        "serve.frontend",
                                        "SUB stall: subscriber stopped reading, stream abandoned",
                                        &[
                                            ("tag", tag.clone()),
                                            ("snap", snap.to_string()),
                                            ("of", t_len.to_string()),
                                        ],
                                    );
                                }
                                token.cancel();
                            }
                        }
                    }
                    // The chunker writes into memory; a failure here is
                    // a shape bug, not transport — abandon the stream.
                    Err(_) => token.cancel(),
                }
            }))
        };
        let req = GenRequest::new(model, t_len, seed, sink)
            .with_priority(priority)
            .with_cancel(token.clone())
            .with_tenant(run_as)
            .with_notify(self.completion_hook(cx, key.clone()));
        let ticket =
            self.handle.submit(req).map_err(|e| translated_frame(&e, Some(tag.clone())))?;
        cx.state
            .pending
            .insert(key, Pending { kind: PendingKind::Sub { tag, sent, trace }, token, ticket });
        Ok(())
    }

    /// The terminal frame of job `id`, recording its serve-tier span.
    fn finish(&self, id: u64, kind: &PendingKind, result: JobResult) -> Frame {
        match kind {
            PendingKind::Gen { tag, fmt, trace } => {
                let tag = tag.clone();
                if result.cancelled {
                    self.record_span(trace, &result, "cancelled");
                    return Frame::err(
                        ErrorCode::Cancelled,
                        tag,
                        "job cancelled before its reply was produced",
                    );
                }
                if let Some(error) = &result.error {
                    self.record_span(trace, &result, "error");
                    return Frame::err(ErrorCode::Internal, tag, error.clone());
                }
                let graph = result.graph.as_deref().expect("InMemory success carries the graph");
                match encode_graph(graph, *fmt) {
                    Err(e) => {
                        self.record_span(trace, &result, "error");
                        Frame::err(ErrorCode::Internal, tag, e.to_string())
                    }
                    Ok(payload) => {
                        self.record_span(trace, &result, "ok");
                        let header = ReplyHeader::Gen {
                            tag,
                            id,
                            model: result.model.clone(),
                            t_len: result.t_len,
                            seed: result.seed,
                            fmt: *fmt,
                            snapshots: result.snapshots,
                            edges: result.edges,
                            cache_hit: result.cache_hit,
                            bytes: payload.len(),
                            trace: Some(trace.id.clone()),
                        };
                        Frame::new(header, payload)
                    }
                }
            }
            PendingKind::Sub { tag, sent, trace } => {
                if let Some(error) = &result.error {
                    self.record_span(trace, &result, "error");
                    return Frame::err(ErrorCode::Internal, Some(tag.clone()), error.clone());
                }
                let delivered = sent.load(Ordering::SeqCst);
                // A stream is only `ok` when every frame was delivered;
                // a cancellation (client CANCEL, or a push aborted by a
                // dead/stalled connection) reports exactly the frames
                // that made it into the outbox.
                let status = if result.cancelled || delivered < result.t_len {
                    EndStatus::Cancelled
                } else {
                    EndStatus::Ok
                };
                let outcome = if matches!(status, EndStatus::Ok) { "ok" } else { "cancelled" };
                self.record_span(trace, &result, outcome);
                Frame::header(ReplyHeader::End {
                    tag: tag.clone(),
                    snapshots: delivered,
                    edges: result.edges,
                    status,
                    qms: result.stages.queue_wait_ms(),
                    genms: result.stages.generation_ms(),
                    trace: Some(trace.id.clone()),
                })
            }
        }
    }
}

impl Dispatch for Serve {
    type Conn = ServeConn;
    type Done = SlotKey;
    const TARGET: &'static str = "serve.frontend";

    fn tenants(&self) -> &TenantRegistry {
        self.handle.tenants()
    }

    fn auth_required(&self) -> bool {
        self.auth_required
    }

    /// Count one `AUTH` outcome into `vrdag_auth_total{outcome=…}`.
    fn auth_outcome(&self, outcome: &str) {
        self.handle.metrics().counter("vrdag_auth_total", &[("outcome", outcome)]).inc();
    }

    fn logger(&self) -> &Logger {
        &self.logger
    }

    fn open(&self) -> ServeConn {
        ServeConn::default()
    }

    fn dispatch(&mut self, cx: &mut Cx<'_, ServeConn>, req: Request) {
        let rejected = match req {
            Request::Gen(spec) => self.dispatch_gen(cx, spec).err(),
            Request::Sub(spec) => self.dispatch_sub(cx, spec).err(),
            Request::Cancel { tag } => {
                let found = match cx.state.pending.get(&SlotKey::Tag(tag.clone())) {
                    Some(pending) => {
                        pending.token.cancel();
                        true
                    }
                    None => false,
                };
                Some(Frame::header(ReplyHeader::Cancel { tag, found }))
            }
            Request::Stats { tag } => {
                let payload = self.handle.stats().render().into_bytes();
                Some(Frame::new(ReplyHeader::Stats { tag, bytes: payload.len() }, payload))
            }
            Request::Metrics { tag } => {
                let payload = self.handle.metrics_text().into_bytes();
                Some(Frame::new(ReplyHeader::Metrics { tag, bytes: payload.len() }, payload))
            }
            Request::Models { tag } => {
                let mut listing = String::new();
                for h in self.handle.registry().handles() {
                    use std::fmt::Write as _;
                    let _ = writeln!(
                        listing,
                        "{} nodes={} attrs={} size={} fingerprint={:016x}",
                        h.name(),
                        h.n_nodes(),
                        h.n_attrs(),
                        h.size_bytes(),
                        h.fingerprint(),
                    );
                }
                let payload = listing.into_bytes();
                Some(Frame::new(ReplyHeader::Models { tag, bytes: payload.len() }, payload))
            }
            Request::Auth { .. } | Request::Ping { .. } | Request::Quit { .. } => {
                unreachable!("answered by the event loop")
            }
        };
        if let Some(frame) = rejected {
            cx.push(frame);
        }
    }

    /// One pump message: turn the finished job's ticket into its
    /// completion frame. Unknown keys are ignored — they are the hooks
    /// of requests `submit` rejected.
    fn done(&mut self, cx: &mut Cx<'_, ServeConn>, key: SlotKey) {
        let Some(mut pending) = cx.state.pending.remove(&key) else { return };
        // The slot is released *before* the frame is pushed: a
        // well-behaved client can only reuse the tag after *reading*
        // the reply, and the table must not still report duplicate-tag
        // by then.
        let frame = match pending.ticket.try_wait() {
            Err(e) => {
                let tag = match &pending.kind {
                    PendingKind::Gen { tag, .. } => tag.clone(),
                    PendingKind::Sub { tag, .. } => Some(tag.clone()),
                };
                translated_frame(&e, tag)
            }
            // The hook fires strictly after the result lands on the
            // ticket channel, so an empty poll can only mean this is a
            // *stale* pump message whose key was re-used by a
            // still-running job — put it back and wait for that job's
            // own completion.
            Ok(None) => {
                cx.state.pending.insert(key, pending);
                return;
            }
            Ok(Some(result)) => self.finish(pending.ticket.id().0, &pending.kind, result),
        };
        cx.push(frame);
    }

    fn in_flight(conn: &ServeConn) -> usize {
        conn.pending.len()
    }

    /// Trip every in-flight token, tagged or not: free the workers
    /// instead of letting them generate for a peer that is gone.
    /// Completions still arrive (and still hold a zombie's slot).
    fn cancel_all(&mut self, cx: &mut Cx<'_, ServeConn>) {
        for pending in cx.state.pending.values() {
            pending.token.cancel();
        }
    }
}

/// Minimal blocking client for the line protocol — the shape an `nc`
/// session takes, with framing handled for you. Used by the loopback
/// tests, the serving example, and handy for smoke-testing a live
/// `vrdag-cli serve`.
///
/// [`request`](Self::request) keeps the old lock-step shape (send one,
/// read one); pipelined callers use [`send`](Self::send) +
/// [`read_frame`](Self::read_frame) and demux by tag (see
/// [`TagDemux`](crate::protocol::TagDemux)).
pub struct LineClient {
    stream: TcpStream,
    frames: FrameScanner,
}

/// A complete reply frame: the parsed header line plus its payload
/// bytes (empty for `PONG`/`BYE`/`END`/`ERR`).
#[derive(Debug)]
pub struct Reply {
    pub header: ReplyHeader,
    pub payload: Vec<u8>,
}

impl LineClient {
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<LineClient> {
        Ok(LineClient::new(TcpStream::connect(addr)?))
    }

    /// Dial with a deadline on the connect and on every read and write
    /// after it — for callers that must not hang on a dead or silent
    /// peer (the router's backend probes).
    pub(crate) fn dial(addr: &SocketAddr, timeout: Duration) -> io::Result<LineClient> {
        let stream = TcpStream::connect_timeout(addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        Ok(LineClient::new(stream))
    }

    fn new(stream: TcpStream) -> LineClient {
        // Requests are one small write each; Nagle + the server's
        // delayed ACK would add ~40ms to every lock-step round trip.
        let _ = stream.set_nodelay(true);
        LineClient { stream, frames: FrameScanner::default() }
    }

    /// Send one request without waiting for anything — the pipelining
    /// half: fire many tagged requests, then collect frames with
    /// [`read_frame`](Self::read_frame).
    pub fn send(&mut self, req: &Request) -> io::Result<()> {
        self.write_line(&req.to_line())
    }

    /// Send one request and read exactly one frame (lock-step).
    pub fn request(&mut self, req: &Request) -> io::Result<Reply> {
        self.send_line(&req.to_line())
    }

    /// Send a raw line (no newline) and read one frame — for exercising
    /// malformed input on purpose.
    pub fn send_line(&mut self, line: &str) -> io::Result<Reply> {
        self.write_line(line)?;
        self.read_frame()
    }

    fn write_line(&mut self, line: &str) -> io::Result<()> {
        // One write per request line: a split write would let the
        // trailing newline sit in a Nagle-delayed segment of its own.
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.stream.write_all(&buf)
    }

    /// Read one complete frame (header + length-prefixed payload). A
    /// hostile `bytes=` value surfaces as an I/O error once the peer
    /// stops sending, never as an allocation of the declared size.
    pub fn read_frame(&mut self) -> io::Result<Reply> {
        let frame = self.frames.read_frame(&mut self.stream)?;
        Ok(Reply { header: frame.header, payload: frame.payload })
    }

    /// Convenience: issue a `GEN` and block for its single reply frame.
    pub fn gen(&mut self, spec: GenSpec) -> io::Result<Reply> {
        self.request(&Request::Gen(spec))
    }

    /// Authenticate the connection with a pre-shared tenant token:
    /// sends `AUTH token=…` and blocks for the single reply frame
    /// (`OK AUTH tenant=<id>` on success, `ERR auth-failed` — followed
    /// by the server closing the connection — otherwise). On an
    /// auth-enabled frontend this must be the first exchange.
    pub fn auth(&mut self, token: &str) -> io::Result<Reply> {
        self.request(&Request::Auth { token: token.to_string(), tag: None })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_full_translates_to_structured_backpressure() {
        let (code, message) = translate(&ServeError::QueueFull { depth: 7, cap: 8 });
        assert_eq!(code, ErrorCode::QueueFull);
        assert_eq!(message, "depth=7 cap=8");
    }
}
