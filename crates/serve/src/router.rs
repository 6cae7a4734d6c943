//! The sharded-serving front tier ([`Router`]): one process speaking
//! the wire protocol of [`protocol`](crate::protocol) on **both hops**
//! — clients talk to the router exactly as they would to a single
//! `vrdag-serve`, and the router talks the same protocol to N backend
//! nodes.
//!
//! What the router owns:
//!
//! * **AUTH termination** — tenant tokens are verified here (same
//!   constant-time [`TenantRegistry`] as a single node); backends never
//!   see a token. On the internal hop the authenticated identity rides
//!   as a `tenant=` assertion on every relayed `GEN`/`SUB` line, which
//!   backends accept only in internal mode
//!   ([`FrontendConfig::trust_tenant_assertion`](crate::FrontendConfig)),
//!   so backend-side quotas and weighted fairness still apply per
//!   tenant.
//! * **Placement** — requests are consistent-hashed by
//!   `(model fingerprint, seed / seed_range)` onto the backend fleet
//!   via rendezvous hashing ([`BackendPool`](crate::backend)): identical
//!   keys always land on the same node's `SnapshotCache` (cache
//!   locality for free), and a backend loss moves only that backend's
//!   keys.
//! * **Verbatim relay** — reply frames (`OK GEN` + payload, `OK SUB`,
//!   `EVT`/`END` streams, backend `ERR`s) are forwarded byte-for-byte;
//!   the router parses headers only for bookkeeping, never re-encodes a
//!   payload, so a generation through the router is bit-identical to
//!   one served directly.
//! * **Failover** — `GEN` is idempotent (generation is deterministic by
//!   construction), so a `GEN` pending on a backend that dies is
//!   re-placed on the surviving fleet with bounded backoff
//!   ([`RouterConfig::gen_retries`]); an in-flight `SUB` stream cannot
//!   be replayed transparently (frames already reached the client) and
//!   terminates with a clean `ERR backend-unavailable tag=…` instead —
//!   the connection stays usable.
//! * **Aggregation** — `STATS`/`MODELS`/`METRICS` fan out to every
//!   reachable backend and come back as one reply: Prometheus series
//!   summed and merged with the router's own registry, the model
//!   listing deduplicated, and fleet `STATS` totals (jobs, cache,
//!   per-tenant) read from the backends' merged `METRICS` series, with
//!   each backend's own `STATS` text kept verbatim for drill-down.
//!
//! The router is the event loop of [`reactor`](crate::reactor) in
//! **relay mode**: one loop thread owns every client connection, and
//! the loop's connection layer (accept, `AUTH` gate, outbox, QUIT
//! drain, lingering close) is the one the serve tier runs. Each client
//! lazily dials its own backend links, registered on the same poller
//! under the client's tokens. Because links are per client, tags never
//! collide across clients and nothing needs rewriting — the relay stays
//! verbatim. Nothing on the loop blocks: a dial runs on a short-lived
//! thread and posts its stream back through the loop's completion pump,
//! and a `GEN` retry's backoff is a loop timer. A client whose outbox
//! is full stops its links being read (and vice versa), the reactor's
//! backpressure discipline across the hop.

use crate::backend::{hash_bytes, BackendPool};
use crate::codec::{FrameScanner, RawFrame};
use crate::core::TENANT_OUTCOMES;
use crate::frontend::{listen, LineClient, Reply};
use crate::protocol::{EndStatus, ErrorCode, GenSpec, ReplyHeader, Request, MAX_LINE_BYTES};
use crate::reactor::{
    self, Cx, Dispatch, Frame, LoopHandle, LoopMetrics, Pump, FRAME_QUEUE, READ_CHUNK, READ_QUANTUM,
};
use crate::tenant::TenantRegistry;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vrdag_obs::{mint_trace_id, Counter, Histogram, Logger, Registry, Span, SpanRecorder};
use vrdag_poll::{connect_ready, create, raw_fd, Backend, Event, Interest};

/// Construction-time knobs of a [`Router`].
pub struct RouterConfig {
    /// Tenant registry for client-side `AUTH` termination. With no
    /// tokens configured the router serves anonymously and relays
    /// without a tenant assertion.
    pub tenants: TenantRegistry,
    /// `GEN`/`SUB` relays one client connection may keep in flight.
    /// Higher than a single node's default: one client multiplexes
    /// over many backend links, each with its own backend-side cap
    /// that still applies per hop.
    pub max_inflight_per_conn: usize,
    /// How many times a pending idempotent `GEN` is re-placed after its
    /// backend dies before the client sees `ERR backend-unavailable`.
    pub gen_retries: u32,
    /// Backoff before retry attempt `n` is `retry_backoff * n` —
    /// bounded by `gen_retries`, so the worst case adds
    /// `backoff * retries * (retries + 1) / 2` of delay.
    pub retry_backoff: Duration,
    /// Deadline for dialing a backend (and for each read and write of
    /// the startup `MODELS` fingerprint probe and the HTTP `/metrics`
    /// fan-out).
    pub dial_timeout: Duration,
    /// Width of the seed bucket in the placement key (`seed /
    /// seed_range`): consecutive seeds within one bucket share a
    /// backend (cache + scheduler affinity), buckets fan out.
    pub seed_range: u64,
    pub logger: Logger,
    /// The router's own metrics registry (`vrdag_route_*`; also the
    /// local half of an aggregated `METRICS` reply).
    pub metrics: Registry,
    /// Ring of completed relay [`Span`]s — one per routed `GEN`/`SUB`,
    /// keyed by the trace id the router mints and stamps on the
    /// internal hop (the owning backend records its serve-tier span
    /// under the same id). Feed it to an HTTP listener's `/traces`
    /// endpoint by cloning the handle.
    pub spans: SpanRecorder,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            tenants: TenantRegistry::default(),
            max_inflight_per_conn: 256,
            gen_retries: 2,
            retry_backoff: Duration::from_millis(50),
            dial_timeout: Duration::from_secs(2),
            seed_range: 16,
            logger: Logger::default(),
            metrics: Registry::default(),
            spans: SpanRecorder::default(),
        }
    }
}

/// State shared by the [`Router`] handle and its event loop.
struct Shared {
    pool: BackendPool,
    logger: Logger,
    metrics: Registry,
    spans: SpanRecorder,
    dial_timeout: Duration,
}

/// The routing front tier. Binds a listener, probes the backends for
/// model fingerprints, and relays every client connection from one
/// event-loop thread until [`shutdown`](Router::shutdown) (or drop).
pub struct Router {
    local_addr: SocketAddr,
    event_loop: LoopHandle,
    shared: Arc<Shared>,
}

impl Router {
    /// Bind `addr` and route onto `backends`. The backends are probed
    /// synchronously (bounded by [`RouterConfig::dial_timeout`] per
    /// dial, read and write) for their model fingerprints; an
    /// unreachable or misbehaving backend starts *down* and is
    /// re-probed on demand, so the router comes up even with a
    /// partially-dead fleet.
    pub fn bind(
        addr: impl ToSocketAddrs,
        backends: Vec<SocketAddr>,
        cfg: RouterConfig,
    ) -> io::Result<Router> {
        if backends.is_empty() {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "router needs >= 1 backend"));
        }
        let listener = listen(addr)?;
        let local_addr = listener.local_addr()?;
        let pool = BackendPool::new(backends, cfg.seed_range, &cfg.metrics);
        crate::publish_build_info(&cfg.metrics);
        let shared = Arc::new(Shared {
            pool,
            logger: cfg.logger,
            metrics: cfg.metrics,
            spans: cfg.spans,
            dial_timeout: cfg.dial_timeout,
        });
        let mut fingerprints = HashMap::new();
        for slot in 0..shared.pool.len() {
            probe_backend(&shared, slot, &mut fingerprints);
        }
        shared.logger.info(
            "serve.router",
            "routing",
            &[
                ("addr", local_addr.to_string()),
                ("backends", shared.pool.len().to_string()),
                ("up", shared.pool.up_count().to_string()),
            ],
        );
        // Same backend choice as the frontend, `VRDAG_POLLER` included.
        let poller = create(Backend::Auto)?;
        // The router's exposition stays `vrdag_route_*` (it merges with
        // the backends' in an aggregated METRICS): the loop's
        // connection counters go to a registry nobody renders.
        let loop_metrics = LoopMetrics::new(
            shared.metrics.gauge("vrdag_route_open_connections", &[]),
            &Registry::default(),
        );
        let event_loop =
            reactor::spawn("vrdag-route", listener, poller, None, loop_metrics, |pump| Route {
                relay_seconds: shared.metrics.histogram("vrdag_route_relay_seconds", &[]),
                retries: shared.metrics.counter("vrdag_route_retries_total", &[]),
                relayed_frames: shared.metrics.counter("vrdag_route_relayed_frames_total", &[]),
                shared: Arc::clone(&shared),
                tenants: cfg.tenants,
                fingerprints,
                max_inflight: cfg.max_inflight_per_conn.max(1),
                gen_retries: cfg.gen_retries,
                retry_backoff: cfg.retry_backoff,
                pump,
            });
        Ok(Router { local_addr, event_loop, shared })
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Client connections currently being served.
    pub fn open_connections(&self) -> usize {
        self.event_loop.open_connections()
    }

    /// Health of backend `slot`, as placement currently sees it.
    pub fn backend_up(&self, slot: usize) -> bool {
        self.shared.pool.get(slot).is_up()
    }

    /// The router's own metrics registry (`vrdag_route_*`).
    pub fn metrics(&self) -> &Registry {
        &self.shared.metrics
    }

    /// The ring of completed relay spans this router records into (a
    /// clone of [`RouterConfig::spans`]).
    pub fn spans(&self) -> &SpanRecorder {
        &self.shared.spans
    }

    /// Readiness: can the router place a request right now? True while
    /// at least one backend is up — the `/readyz` predicate.
    pub fn ready(&self) -> bool {
        self.shared.pool.up_count() >= 1
    }

    /// The aggregated Prometheus exposition: every reachable backend's
    /// `METRICS` payload merged (series summed), plus the router's own
    /// registry — the same bytes a wire `METRICS` command returns, for
    /// the HTTP `/metrics` endpoint. Blocks on one round trip per up
    /// backend (bounded by [`RouterConfig::dial_timeout`] per dial,
    /// read and write).
    pub fn metrics_text(&self) -> String {
        let mut texts: Vec<String> = Vec::new();
        for slot in 0..self.shared.pool.len() {
            let meta = self.shared.pool.get(slot);
            if !meta.is_up() {
                continue;
            }
            match fetch(&self.shared, slot, Request::Metrics { tag: None }) {
                Ok(Reply { header: ReplyHeader::Metrics { .. }, payload }) => {
                    if let Ok(text) = String::from_utf8(payload) {
                        texts.push(text);
                    }
                }
                Ok(_) => {}
                Err(_) => {
                    meta.note_dial_failure();
                    meta.mark_down();
                }
            }
        }
        // The router's own registry joins the merge as one more input
        // (instead of being appended raw) so families registered on
        // both sides — `vrdag_build_info` — stay a single family with
        // a single (summed) sample, a valid exposition.
        texts.push(self.shared.metrics.render());
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        merge_prometheus(&refs)
    }

    /// Stop the event loop, sever every client (and with it every
    /// backend link), and join the loop thread. Idempotent; also runs
    /// on drop.
    pub fn shutdown(&mut self) {
        self.event_loop.shutdown();
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One blocking request/reply exchange with backend `slot` on a fresh
/// connection, through the shared frame reader with the dial timeout on
/// every step — the startup fingerprint probe and the HTTP `/metrics`
/// fan-out, neither of which runs on the event loop.
fn fetch(shared: &Shared, slot: usize, req: Request) -> io::Result<Reply> {
    let mut client = LineClient::dial(&shared.pool.get(slot).addr(), shared.dial_timeout)?;
    let reply = client.request(&req)?;
    let _ = client.send(&Request::Quit { tag: None });
    Ok(reply)
}

/// Startup fingerprint probe: one blocking `MODELS` round trip against
/// backend `slot`. Marks the backend's health from the outcome.
fn probe_backend(shared: &Shared, slot: usize, fingerprints: &mut HashMap<String, u64>) {
    let meta = shared.pool.get(slot);
    match fetch(shared, slot, Request::Models { tag: None }) {
        Ok(reply) => {
            if let ReplyHeader::Models { .. } = reply.header {
                learn_fingerprints(fingerprints, &reply.payload);
            }
            meta.mark_up();
        }
        Err(e) => {
            meta.note_dial_failure();
            meta.mark_down();
            shared.logger.warn(
                "serve.router",
                "backend probe failed",
                &[("backend", meta.addr().to_string()), ("error", e.to_string())],
            );
        }
    }
}

/// Harvest `name … fingerprint=<hex>` pairs from a `MODELS` payload.
fn learn_fingerprints(map: &mut HashMap<String, u64>, payload: &[u8]) {
    let Ok(text) = std::str::from_utf8(payload) else { return };
    for line in text.lines() {
        let mut tokens = line.split_whitespace();
        let Some(name) = tokens.next() else { continue };
        for token in tokens {
            if let Some(hex) = token.strip_prefix("fingerprint=") {
                if let Ok(fp) = u64::from_str_radix(hex, 16) {
                    map.insert(name.to_string(), fp);
                }
            }
        }
    }
}

/// A backend dial that finished off the loop.
struct Dialed {
    slot: usize,
    result: io::Result<TcpStream>,
}

/// One backend connection of one client. `stream` is `None` while the
/// dial runs; lines queued meanwhile go out once it lands.
struct Link {
    stream: Option<TcpStream>,
    frames: FrameScanner,
    out: Vec<u8>,
    out_pos: usize,
    interest: Interest,
}

impl Link {
    fn dialing() -> Link {
        Link {
            stream: None,
            frames: FrameScanner::default(),
            out: Vec::new(),
            out_pos: 0,
            interest: Interest::READABLE,
        }
    }

    fn backlog(&self) -> usize {
        self.out.len() - self.out_pos
    }

    /// Write queued lines until the socket would block.
    fn flush(&mut self) -> io::Result<()> {
        let Some(stream) = self.stream.as_mut() else { return Ok(()) };
        while self.out_pos < self.out.len() {
            match stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
        Ok(())
    }
}

/// Where a relayed request is.
#[derive(Clone, Copy, PartialEq)]
enum Place {
    /// Sent (or queued behind a dial) on this backend.
    On(usize),
    /// Its backend died; re-placed, avoiding `dead`, once `at` passes.
    Retry { at: Instant, dead: usize },
}

/// One in-flight `GEN`/`SUB` relay. Untagged `GEN` replies carry no tag
/// to match on, so their completion is matched by the `(model, t, seed,
/// fmt)` echo in the `OK GEN` header (deterministic generation makes
/// jobs with identical coordinates interchangeable); an untagged `ERR`
/// resolves the oldest untagged relay on that backend.
struct Relay {
    /// The internal-hop request, tenant and trace stamped.
    spec: GenSpec,
    /// `SUB` streams cannot be replayed once frames may have reached
    /// the client; `GEN` is idempotent.
    sub: bool,
    place: Place,
    attempts: u32,
    /// Since when the current placement waits for its link to connect.
    waiting: Option<Instant>,
    /// When the request first went out — the start of the relay stage.
    sent: Option<Instant>,
    /// Milliseconds spent waiting for backend links, across retries.
    dial_ms: f64,
}

impl Relay {
    fn line(&self) -> String {
        let spec = self.spec.clone();
        let req = if self.sub { Request::Sub(spec) } else { Request::Gen(spec) };
        req.to_line()
    }

    /// The request line reached a connected backend.
    fn mark_sent(&mut self) {
        if let Some(since) = self.waiting.take() {
            self.dial_ms += since.elapsed().as_secs_f64() * 1e3;
        }
        self.sent.get_or_insert_with(Instant::now);
    }

    fn relay_secs(&self) -> f64 {
        self.sent.map_or(0.0, |at| at.elapsed().as_secs_f64())
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum AggKind {
    Stats,
    Metrics,
    Models,
}

impl AggKind {
    /// The commands sent to each backend, in part order. Fleet `STATS`
    /// sums its totals from the `METRICS` series and shows the `STATS`
    /// text as each backend's drill-down section.
    fn probes(self) -> &'static [&'static str] {
        match self {
            AggKind::Stats => &["STATS", "METRICS"],
            AggKind::Metrics => &["METRICS"],
            AggKind::Models => &["MODELS"],
        }
    }
}

/// One backend's contribution to a fan-out reply.
enum Part {
    /// Awaiting the reply to the internal probe tagged with this.
    Waiting(String),
    Payload(Vec<u8>),
    /// Unreachable, or answered with an `ERR`; carries the note shown
    /// in the aggregate.
    Down(String),
}

/// A `STATS`/`MODELS`/`METRICS` fan-out in progress.
struct Aggregate {
    kind: AggKind,
    client_tag: Option<String>,
    /// One part per [`AggKind::probes`] entry per backend, slot-major.
    parts: Vec<Part>,
}

impl Aggregate {
    fn waits_on(&self, tag: &str) -> bool {
        self.parts.iter().any(|p| matches!(p, Part::Waiting(t) if t == tag))
    }

    /// The parts backend `slot` owes.
    fn slot_parts(&self, slot: usize) -> &[Part] {
        let n = self.kind.probes().len();
        &self.parts[slot * n..(slot + 1) * n]
    }
}

/// Relay-mode state of one client connection.
struct RouteConn {
    /// One lazily dialed link per backend slot.
    links: Vec<Option<Link>>,
    relays: Vec<Relay>,
    aggs: Vec<Aggregate>,
    /// Counter behind server-assigned `~<n>` SUB tags (mirrors the
    /// serve tier's numbering so a client through the router sees the
    /// same tags a direct connection would).
    auto_tag: u64,
    /// Counter behind internal `~a<n>` aggregate probe tags.
    agg_tag: u64,
}

impl RouteConn {
    fn tag_taken(&self, tag: &str) -> bool {
        self.relays.iter().any(|r| r.spec.tag.as_deref() == Some(tag))
            || self.aggs.iter().any(|a| a.waits_on(tag))
    }
}

/// The relay dispatch mode.
struct Route {
    shared: Arc<Shared>,
    tenants: TenantRegistry,
    /// Model name → artifact fingerprint, learned from backend `MODELS`
    /// listings (startup probe + every aggregated `MODELS`). Placement
    /// falls back to hashing the name until a fingerprint is known.
    fingerprints: HashMap<String, u64>,
    relay_seconds: Histogram,
    retries: Counter,
    relayed_frames: Counter,
    max_inflight: usize,
    gen_retries: u32,
    retry_backoff: Duration,
    pump: Pump<Dialed>,
}

impl Route {
    /// The placement key of `(model, seed)`: fingerprint when known,
    /// name hash until then (converges once any `MODELS` listing has
    /// been seen).
    fn placement_key(&self, model: &str, seed: u64) -> u64 {
        let model_key =
            self.fingerprints.get(model).copied().unwrap_or_else(|| hash_bytes(model.as_bytes()));
        self.shared.pool.request_key(model_key, seed)
    }

    /// The backend for `key`: the full-fleet placement when that node is
    /// up (or due a recovery probe), otherwise rendezvous over the
    /// healthy subset — always avoiding `dead`, a backend that just
    /// failed this request.
    fn pick(&self, key: u64, dead: Option<usize>) -> Option<usize> {
        let pool = &self.shared.pool;
        if dead.is_none() {
            if let Some(home) = pool.place(key) {
                let meta = pool.get(home);
                if meta.is_up() || meta.take_reprobe_slot() {
                    return Some(home);
                }
            }
        }
        pool.place_healthy(key, dead)
    }

    /// Start dialing backend `slot` for this client, off the loop: the
    /// dial thread posts its stream back through the completion pump.
    fn dial(&self, cx: &mut Cx<'_, RouteConn>, slot: usize) {
        cx.state.links[slot] = Some(Link::dialing());
        let addr = self.shared.pool.get(slot).addr();
        let timeout = self.shared.dial_timeout;
        let (idx, serial) = (cx.idx, cx.serial);
        let pump = self.pump.clone();
        let spawned =
            std::thread::Builder::new().name("vrdag-route-dial".to_string()).spawn(move || {
                pump.post(idx, serial, Dialed { slot, result: connect_ready(&addr, timeout) })
            });
        if let Err(e) = spawned {
            self.pump.post(idx, serial, Dialed { slot, result: Err(e) });
        }
    }

    /// Queue `line` on this client's link to `slot` (dialing it first
    /// if there is none) and flush eagerly; a write failure routes
    /// through the failover path, which sees whatever the caller just
    /// recorded.
    fn send(&mut self, cx: &mut Cx<'_, RouteConn>, slot: usize, line: &str) {
        if cx.state.links[slot].is_none() {
            self.dial(cx, slot);
        }
        let link = cx.state.links[slot].as_mut().expect("link just ensured");
        link.out.reserve(line.len() + 1);
        link.out.extend_from_slice(line.as_bytes());
        link.out.push(b'\n');
        if let Err(e) = link.flush() {
            self.link_failed(cx, slot, &e.to_string());
        }
    }

    /// Place `relay` (avoiding `dead`, the backend that just failed it)
    /// and send it, or fail it with `ERR backend-unavailable`.
    fn launch(&mut self, cx: &mut Cx<'_, RouteConn>, mut relay: Relay, dead: Option<usize>) {
        if let Some(since) = relay.waiting.take() {
            relay.dial_ms += since.elapsed().as_secs_f64() * 1e3;
        }
        let key = self.placement_key(&relay.spec.model, relay.spec.seed);
        let Some(slot) = self.pick(key, dead) else {
            self.record_span(cx, &relay, "error", None);
            let message = if relay.attempts == 0 {
                "no healthy backend for this request"
            } else {
                "no healthy backend left for this request"
            };
            cx.push(Frame::err(ErrorCode::BackendUnavailable, relay.spec.tag.clone(), message));
            return;
        };
        relay.place = Place::On(slot);
        relay.waiting = Some(Instant::now());
        if cx.state.links[slot].as_ref().is_some_and(|l| l.stream.is_some()) {
            relay.mark_sent();
        }
        let line = relay.line();
        cx.state.relays.push(relay);
        self.send(cx, slot, &line);
    }

    /// Record the router's relay span of one finished request: `dial`
    /// (waiting for backend links, including failover re-dials),
    /// `relay` (request sent → terminal frame), `total`.
    fn record_span(
        &self,
        cx: &Cx<'_, RouteConn>,
        relay: &Relay,
        outcome: &'static str,
        slot: Option<usize>,
    ) {
        let relay_ms = relay.relay_secs() * 1e3;
        self.shared.spans.record(Span {
            trace: relay.spec.trace.clone().unwrap_or_default(),
            tier: "route",
            parent: None,
            tenant: Some(cx.tenant.id().to_string()),
            model: relay.spec.model.clone(),
            model_fp: self.fingerprints.get(&relay.spec.model).copied(),
            seed: relay.spec.seed,
            outcome,
            backend: slot.map(|s| self.shared.pool.get(s).addr().to_string()),
            stages_ms: vec![
                ("dial", relay.dial_ms),
                ("relay", relay_ms),
                ("total", relay.dial_ms + relay_ms),
            ],
        });
    }

    /// A relay reached its terminal frame on `slot`.
    fn finish(&self, cx: &mut Cx<'_, RouteConn>, at: usize, outcome: &'static str, slot: usize) {
        let relay = cx.state.relays.remove(at);
        self.relay_seconds.observe(relay.relay_secs());
        self.record_span(cx, &relay, outcome, Some(slot));
    }

    /// Stamp the internal-hop assertions on a client's `GEN`/`SUB`:
    /// the tenant (when auth is on) and a freshly minted trace id. A
    /// client-stamped `trace=` is refused — the same trust rule as
    /// `tenant=`, and the client side of the router is never an
    /// internal hop.
    fn stamp(&self, cx: &Cx<'_, RouteConn>, spec: &mut GenSpec) -> Result<(), Frame> {
        if spec.trace.is_some() {
            return Err(Frame::err(
                ErrorCode::InvalidRequest,
                spec.tag.clone(),
                "trace= is an internal-hop assertion; this frontend does not trust it",
            ));
        }
        if self.tenants.auth_enabled() {
            spec.tenant = Some(cx.tenant.id().to_string());
        }
        spec.trace = Some(mint_trace_id());
        Ok(())
    }

    fn check_room(&self, conn: &RouteConn, tag: Option<&String>) -> Result<(), Frame> {
        if let Some(tag) = tag {
            if conn.tag_taken(tag) {
                return Err(Frame::err(
                    ErrorCode::DuplicateTag,
                    Some(tag.clone()),
                    format!("tag {tag} is already in flight on this connection"),
                ));
            }
        }
        if conn.relays.len() >= self.max_inflight {
            return Err(Frame::err(
                ErrorCode::TooManyInflight,
                tag.cloned(),
                format!("inflight={} cap={}", conn.relays.len(), self.max_inflight),
            ));
        }
        Ok(())
    }

    fn route_gen(&mut self, cx: &mut Cx<'_, RouteConn>, mut spec: GenSpec) -> Result<(), Frame> {
        self.check_room(cx.state, spec.tag.as_ref())?;
        self.stamp(cx, &mut spec)?;
        self.launch(cx, Relay::new(spec, false), None);
        Ok(())
    }

    fn route_sub(&mut self, cx: &mut Cx<'_, RouteConn>, mut spec: GenSpec) -> Result<(), Frame> {
        // The trace assertion is checked first (like the serve tier:
        // before any tag assignment) so a rejected hop never opens a
        // stream and the ERR carries the client's own tag.
        let original = spec.tag.clone();
        self.stamp(cx, &mut spec)?;
        // Tags are assigned at the *router* for untagged SUBs: two
        // backends would otherwise both hand out `~1` on their own
        // links and collide at the client's demux.
        let tag = match original {
            Some(tag) => tag,
            None => loop {
                cx.state.auto_tag += 1;
                let candidate = format!("~{}", cx.state.auto_tag);
                if !cx.state.tag_taken(&candidate) {
                    break candidate;
                }
            },
        };
        self.check_room(cx.state, Some(&tag))?;
        spec.tag = Some(tag);
        self.launch(cx, Relay::new(spec, true), None);
        Ok(())
    }

    fn cancel(&mut self, cx: &mut Cx<'_, RouteConn>, tag: String) {
        let Some(at) = cx.state.relays.iter().position(|r| r.spec.tag.as_ref() == Some(&tag))
        else {
            cx.push(Frame::header(ReplyHeader::Cancel { tag, found: false }));
            return;
        };
        match cx.state.relays[at].place {
            // The backend owns the stream's termination: its
            // `OK CANCEL` (and the stream's END) relay back verbatim.
            Place::On(slot) => self.send(cx, slot, &Request::Cancel { tag }.to_line()),
            // Backing off between backends: nothing is running, so the
            // router answers what a backend would for a job cancelled
            // before it ran.
            Place::Retry { .. } => {
                let relay = cx.state.relays.remove(at);
                self.record_span(cx, &relay, "cancelled", None);
                cx.push(Frame::header(ReplyHeader::Cancel { tag: tag.clone(), found: true }));
                cx.push(Frame::err(
                    ErrorCode::Cancelled,
                    Some(tag),
                    "job cancelled before its reply was produced",
                ));
            }
        }
    }

    fn next_internal_tag(&self, conn: &mut RouteConn) -> String {
        loop {
            conn.agg_tag += 1;
            let candidate = format!("~a{}", conn.agg_tag);
            if !conn.tag_taken(&candidate) {
                return candidate;
            }
        }
    }

    fn start_aggregate(&mut self, cx: &mut Cx<'_, RouteConn>, kind: AggKind, tag: Option<String>) {
        let probes = kind.probes();
        let mut parts = Vec::with_capacity(self.shared.pool.len() * probes.len());
        let mut lines = Vec::new();
        for (slot, meta) in self.shared.pool.iter().enumerate() {
            let live = meta.is_up() || meta.take_reprobe_slot();
            for probe in probes {
                parts.push(if live {
                    let itag = self.next_internal_tag(cx.state);
                    lines.push((slot, format!("{probe} tag={itag}")));
                    Part::Waiting(itag)
                } else {
                    Part::Down(meta.addr().to_string())
                });
            }
        }
        cx.state.aggs.push(Aggregate { kind, client_tag: tag, parts });
        for (slot, line) in lines {
            self.send(cx, slot, &line);
        }
        self.finish_aggregates(cx);
    }

    /// Settle the aggregate part waiting on internal probe tag `itag`.
    fn resolve_part(&mut self, cx: &mut Cx<'_, RouteConn>, itag: &str, part: Part) {
        for agg in &mut cx.state.aggs {
            if let Some(p) =
                agg.parts.iter_mut().find(|p| matches!(p, Part::Waiting(t) if t == itag))
            {
                *p = part;
                break;
            }
        }
        self.finish_aggregates(cx);
    }

    /// Answer every aggregate whose parts have all settled.
    fn finish_aggregates(&mut self, cx: &mut Cx<'_, RouteConn>) {
        while let Some(at) = cx
            .state
            .aggs
            .iter()
            .position(|a| !a.parts.iter().any(|p| matches!(p, Part::Waiting(_))))
        {
            let agg = cx.state.aggs.remove(at);
            let payload = match agg.kind {
                AggKind::Stats => render_stats_aggregate(&self.shared.pool, &agg.parts),
                AggKind::Models => {
                    // A MODELS sweep doubles as a fingerprint refresh, so
                    // placement self-heals after model re-registration.
                    for part in &agg.parts {
                        if let Part::Payload(bytes) = part {
                            learn_fingerprints(&mut self.fingerprints, bytes);
                        }
                    }
                    render_models_aggregate(&agg.parts)
                }
                AggKind::Metrics => {
                    // Own registry merges in as one more input so shared
                    // families (`vrdag_build_info`) do not duplicate —
                    // mirrors [`Router::metrics_text`] exactly.
                    let own = self.shared.metrics.render();
                    let texts: Vec<&str> = agg
                        .parts
                        .iter()
                        .filter_map(|p| match p {
                            Part::Payload(bytes) => std::str::from_utf8(bytes).ok(),
                            _ => None,
                        })
                        .chain(std::iter::once(own.as_str()))
                        .collect();
                    merge_prometheus(&texts).into_bytes()
                }
            };
            let (tag, bytes) = (agg.client_tag, payload.len());
            let header = match agg.kind {
                AggKind::Stats => ReplyHeader::Stats { tag, bytes },
                AggKind::Metrics => ReplyHeader::Metrics { tag, bytes },
                AggKind::Models => ReplyHeader::Models { tag, bytes },
            };
            cx.push(Frame::new(header, payload));
        }
    }

    /// One frame from backend `slot`: an aggregate part, or a reply
    /// relayed verbatim with its terminal-frame bookkeeping.
    fn on_frame(&mut self, cx: &mut Cx<'_, RouteConn>, slot: usize, frame: RawFrame) {
        let RawFrame { line, header, payload } = frame;
        if let Some(tag) = header.tag() {
            if cx.state.aggs.iter().any(|a| a.waits_on(tag)) {
                let part = match &header {
                    ReplyHeader::Err { message, .. } => Part::Down(format!(
                        "{} answered ERR: {message}",
                        self.shared.pool.get(slot).addr()
                    )),
                    _ => Part::Payload(payload),
                };
                self.resolve_part(cx, tag, part);
                return;
            }
        }
        cx.push(Frame::relayed(line, payload));
        self.relayed_frames.inc();
        // Terminal-frame bookkeeping: observe the relay latency and
        // record the router's relay span under the request's trace id
        // (the backend recorded its serve-tier span under the same id).
        let on_slot = |r: &Relay| r.place == Place::On(slot);
        let relays = &cx.state.relays;
        let (found, outcome) = match &header {
            ReplyHeader::Gen { tag: Some(tag), .. } | ReplyHeader::End { tag, .. } => {
                let outcome = match &header {
                    ReplyHeader::End { status: EndStatus::Cancelled, .. } => "cancelled",
                    _ => "ok",
                };
                let at = relays.iter().position(|r| on_slot(r) && r.spec.tag.as_ref() == Some(tag));
                (at, outcome)
            }
            ReplyHeader::Err { tag: Some(tag), .. } => (
                relays.iter().position(|r| on_slot(r) && r.spec.tag.as_ref() == Some(tag)),
                "error",
            ),
            ReplyHeader::Gen { tag: None, model, t_len, seed, fmt, .. } => {
                let at = relays.iter().position(|r| {
                    on_slot(r)
                        && !r.sub
                        && r.spec.tag.is_none()
                        && r.spec.model == *model
                        && r.spec.t_len == *t_len
                        && r.spec.seed == *seed
                        && r.spec.fmt == *fmt
                });
                (at, "ok")
            }
            // No tag to match: resolve the oldest untagged relay on this
            // backend (untagged replies are inherently ambiguous — same
            // as on a direct connection).
            ReplyHeader::Err { tag: None, .. } => {
                (relays.iter().position(|r| on_slot(r) && r.spec.tag.is_none()), "error")
            }
            _ => (None, "ok"),
        };
        if let Some(at) = found {
            self.finish(cx, at, outcome, slot);
        }
    }

    /// Backend `slot` failed this client's link: mark it down, fail
    /// streams cleanly, schedule idempotent `GEN` retries with bounded
    /// backoff, re-place requests that never went out, and resolve any
    /// aggregate parts it still owed.
    fn link_failed(&mut self, cx: &mut Cx<'_, RouteConn>, slot: usize, error: &str) {
        let meta = Arc::clone(self.shared.pool.get(slot));
        meta.mark_down();
        if let Some(link) = cx.state.links[slot].take() {
            if let Some(stream) = &link.stream {
                let _ = cx.poller.deregister(raw_fd(stream), cx.link_token(slot));
            }
        }
        self.shared.logger.warn(
            "serve.router",
            "backend connection failed",
            &[("backend", meta.addr().to_string()), ("error", error.to_string())],
        );
        self.fail_over(cx, slot, &format!("{} (unreachable)", meta.addr()));
    }

    /// Move everything this client had on backend `slot` elsewhere (or
    /// end it); `down_note` marks the aggregate parts `slot` owed.
    fn fail_over(&mut self, cx: &mut Cx<'_, RouteConn>, slot: usize, down_note: &str) {
        let addr = self.shared.pool.get(slot).addr();
        let (lost, kept) = std::mem::take(&mut cx.state.relays)
            .into_iter()
            .partition::<Vec<Relay>, _>(|r| r.place == Place::On(slot));
        cx.state.relays = kept;
        for mut relay in lost {
            if relay.sent.is_none() {
                // Never reached a backend: place it afresh.
                self.launch(cx, relay, Some(slot));
            } else if relay.sub {
                // Frames may already have reached the client, so the
                // stream cannot be replayed — terminate it cleanly.
                self.record_span(cx, &relay, "error", Some(slot));
                cx.push(Frame::err(
                    ErrorCode::BackendUnavailable,
                    relay.spec.tag.clone(),
                    format!("backend {addr} failed mid-stream; resubscribe to retry"),
                ));
            } else if relay.attempts >= self.gen_retries {
                self.record_span(cx, &relay, "error", None);
                cx.push(Frame::err(
                    ErrorCode::BackendUnavailable,
                    relay.spec.tag.clone(),
                    format!("backend failed and retries ({}) are exhausted", self.gen_retries),
                ));
            } else {
                // A loop timer, not a sleep: the backoff delays only
                // this request.
                relay.attempts += 1;
                self.retries.inc();
                relay.place = Place::Retry {
                    at: Instant::now() + self.retry_backoff * relay.attempts,
                    dead: slot,
                };
                cx.state.relays.push(relay);
            }
        }
        let owed: Vec<String> = cx
            .state
            .aggs
            .iter()
            .flat_map(|a| a.slot_parts(slot))
            .filter_map(|p| match p {
                Part::Waiting(itag) => Some(itag.clone()),
                _ => None,
            })
            .collect();
        for itag in owed {
            self.resolve_part(cx, &itag, Part::Down(down_note.to_string()));
        }
    }

    /// The dial of `slot` landed (or failed).
    fn dialed(&mut self, cx: &mut Cx<'_, RouteConn>, slot: usize, result: io::Result<TcpStream>) {
        let meta = Arc::clone(self.shared.pool.get(slot));
        let token = cx.link_token(slot);
        // A link torn down meanwhile (teardown, failover) drops the
        // stream here.
        let Some(link) = cx.state.links[slot].as_mut().filter(|l| l.stream.is_none()) else {
            return;
        };
        let registered = result.and_then(|stream| {
            cx.poller.register(raw_fd(&stream), token, Interest::READABLE)?;
            Ok(stream)
        });
        match registered {
            Ok(stream) => {
                meta.mark_up();
                link.stream = Some(stream);
                link.interest = Interest::READABLE;
                for relay in &mut cx.state.relays {
                    if relay.place == Place::On(slot) {
                        relay.mark_sent();
                    }
                }
                if let Err(e) = cx.state.links[slot].as_mut().expect("link present").flush() {
                    self.link_failed(cx, slot, &e.to_string());
                }
            }
            Err(e) => {
                cx.state.links[slot] = None;
                meta.note_dial_failure();
                meta.mark_down();
                self.shared.logger.warn(
                    "serve.router",
                    "backend dial failed",
                    &[("backend", meta.addr().to_string()), ("error", e.to_string())],
                );
                self.fail_over(cx, slot, &meta.addr().to_string());
            }
        }
    }

    /// Drain readable bytes from this client's link to `slot`, relaying
    /// complete frames — up to the fairness quantum, and only while the
    /// client's outbox has room.
    fn read_link(&mut self, cx: &mut Cx<'_, RouteConn>, slot: usize) {
        let mut chunk = [0u8; READ_CHUNK];
        let mut consumed = 0;
        while consumed < READ_QUANTUM && cx.out.len() < FRAME_QUEUE {
            let Some(link) = cx.state.links[slot].as_mut() else { return };
            let Some(stream) = link.stream.as_mut() else { return };
            let n = match stream.read(&mut chunk) {
                Ok(0) => return self.link_failed(cx, slot, "backend closed the connection"),
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return self.link_failed(cx, slot, &e.to_string()),
            };
            consumed += n;
            link.frames.push(&chunk[..n]);
            let mut frames = Vec::new();
            let scanned = loop {
                match link.frames.next_frame() {
                    Ok(Some(frame)) => frames.push(frame),
                    Ok(None) => break Ok(()),
                    Err(e) => break Err(e),
                }
            };
            for frame in frames {
                self.on_frame(cx, slot, frame);
            }
            if let Err(e) = scanned {
                return self.link_failed(cx, slot, &e);
            }
        }
    }
}

impl Relay {
    /// A fresh request, due for placement by [`Route::launch`].
    fn new(spec: GenSpec, sub: bool) -> Relay {
        Relay {
            spec,
            sub,
            place: Place::Retry { at: Instant::now(), dead: usize::MAX },
            attempts: 0,
            waiting: None,
            sent: None,
            dial_ms: 0.0,
        }
    }
}

impl Dispatch for Route {
    type Conn = RouteConn;
    type Done = Dialed;
    const TARGET: &'static str = "serve.router";

    fn links(&self) -> usize {
        self.shared.pool.len()
    }

    fn tenants(&self) -> &TenantRegistry {
        &self.tenants
    }

    fn auth_required(&self) -> bool {
        self.tenants.auth_enabled()
    }

    fn logger(&self) -> &Logger {
        &self.shared.logger
    }

    fn open(&self) -> RouteConn {
        RouteConn {
            links: (0..self.shared.pool.len()).map(|_| None).collect(),
            relays: Vec::new(),
            aggs: Vec::new(),
            auto_tag: 0,
            agg_tag: 0,
        }
    }

    fn dispatch(&mut self, cx: &mut Cx<'_, RouteConn>, req: Request) {
        let outcome = match req {
            Request::Gen(spec) => self.route_gen(cx, spec),
            Request::Sub(spec) => self.route_sub(cx, spec),
            Request::Cancel { tag } => {
                self.cancel(cx, tag);
                Ok(())
            }
            Request::Stats { tag } => {
                self.start_aggregate(cx, AggKind::Stats, tag);
                Ok(())
            }
            Request::Metrics { tag } => {
                self.start_aggregate(cx, AggKind::Metrics, tag);
                Ok(())
            }
            Request::Models { tag } => {
                self.start_aggregate(cx, AggKind::Models, tag);
                Ok(())
            }
            Request::Auth { .. } | Request::Ping { .. } | Request::Quit { .. } => {
                unreachable!("answered by the event loop")
            }
        };
        if let Err(frame) = outcome {
            cx.push(frame);
        }
    }

    fn done(&mut self, cx: &mut Cx<'_, RouteConn>, done: Dialed) {
        self.dialed(cx, done.slot, done.result);
    }

    fn in_flight(conn: &RouteConn) -> usize {
        conn.relays.len() + conn.aggs.len()
    }

    /// Drop every link and relay: the backends see their connections
    /// close and cancel the work themselves.
    fn cancel_all(&mut self, cx: &mut Cx<'_, RouteConn>) {
        for slot in 0..cx.state.links.len() {
            if let Some(stream) = cx.state.links[slot].take().and_then(|l| l.stream) {
                let _ = cx.poller.deregister(raw_fd(&stream), cx.link_token(slot));
            }
        }
        cx.state.relays.clear();
        cx.state.aggs.clear();
    }

    fn link_ready(&mut self, cx: &mut Cx<'_, RouteConn>, slot: usize, ev: Event) {
        if ev.writable {
            if let Some(Err(e)) = cx.state.links[slot].as_mut().map(Link::flush) {
                self.link_failed(cx, slot, &e.to_string());
            }
        }
        if ev.readable {
            self.read_link(cx, slot);
        }
    }

    /// Links are read only while the client's outbox has room, and
    /// watched for writability only while they hold unsent lines.
    fn sync_links(&mut self, cx: &mut Cx<'_, RouteConn>) {
        let room = cx.out.len() < FRAME_QUEUE;
        for slot in 0..cx.state.links.len() {
            let token = cx.link_token(slot);
            let Some(link) = cx.state.links[slot].as_mut() else { continue };
            let Some(stream) = &link.stream else { continue };
            let want = Interest { readable: room, writable: link.backlog() > 0 };
            if want != link.interest && cx.poller.reregister(raw_fd(stream), token, want).is_ok() {
                link.interest = want;
            }
        }
    }

    /// Stop reading the client while a link holds a queue's worth of
    /// unsent request lines.
    fn paused(conn: &RouteConn) -> bool {
        conn.links.iter().flatten().any(|l| l.backlog() > FRAME_QUEUE * MAX_LINE_BYTES)
    }

    fn timer(conn: &RouteConn) -> Option<Instant> {
        conn.relays
            .iter()
            .filter_map(|r| match r.place {
                Place::Retry { at, .. } => Some(at),
                Place::On(_) => None,
            })
            .min()
    }

    /// Re-place the `GEN`s whose retry backoff has elapsed.
    fn fire(&mut self, cx: &mut Cx<'_, RouteConn>, now: Instant) {
        while let Some(at) = cx
            .state
            .relays
            .iter()
            .position(|r| matches!(r.place, Place::Retry { at, .. } if at <= now))
        {
            let relay = cx.state.relays.remove(at);
            let Place::Retry { dead, .. } = relay.place else { unreachable!() };
            self.launch(cx, relay, Some(dead));
        }
    }
}

// ----- aggregate rendering (pure helpers, unit-tested below) ---------------

/// Fleet `STATS`: the header, cache line and tenant lines are summed
/// from the backends' merged `METRICS` series; each backend's own
/// `STATS` text follows verbatim as its drill-down section. `parts`
/// holds a `[STATS, METRICS]` pair per backend slot.
fn render_stats_aggregate(pool: &BackendPool, parts: &[Part]) -> Vec<u8> {
    use std::fmt::Write as _;
    let texts: Vec<&str> = parts
        .chunks(2)
        .filter_map(|pair| match &pair[1] {
            Part::Payload(bytes) => std::str::from_utf8(bytes).ok(),
            _ => None,
        })
        .collect();
    let merged = merge_prometheus(&texts);
    // Series are looked up by their exact rendering: the registry sorts
    // labels, and tenant ids need no escaping.
    let value = |series: &str| -> u64 {
        let sample = merged.lines().find_map(|l| l.strip_prefix(series)?.strip_prefix(' '));
        sample.and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0) as u64
    };
    let mut tenants: Vec<&str> = merged
        .lines()
        .filter_map(|l| {
            l.strip_prefix("vrdag_tenant_streamed_bytes_total{tenant=\"")?.split_once('"')
        })
        .map(|(id, _)| id)
        .collect();
    tenants.sort_unstable();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "route: {} backends ({} up)  {} submitted / {} completed across the fleet",
        pool.len(),
        pool.up_count(),
        value("vrdag_jobs_submitted_total"),
        value("vrdag_jobs_completed_total"),
    );
    let _ = writeln!(
        out,
        "  cache: {} hits / {} misses fleet-wide",
        value("vrdag_cache_hits_total"),
        value("vrdag_cache_misses_total"),
    );
    // Like a single node's render: the tenant section appears once named
    // tenants show up.
    if tenants.iter().any(|id| *id != crate::tenant::ANONYMOUS_TENANT) {
        let _ = writeln!(out, "  tenants (summed across backends):");
        for id in tenants {
            let [submitted, completed, failed, cancelled, rejected] = TENANT_OUTCOMES.map(|o| {
                value(&format!("vrdag_tenant_jobs_total{{outcome=\"{o}\",tenant=\"{id}\"}}"))
            });
            let kib =
                value(&format!("vrdag_tenant_streamed_bytes_total{{tenant=\"{id}\"}}")) / 1024;
            let _ = writeln!(
                out,
                "    {id:<16} {submitted} submitted / {completed} completed ({failed} failed, {cancelled} cancelled, {rejected} rejected)  {kib} KiB streamed",
            );
        }
    }
    for (slot, pair) in parts.chunks(2).enumerate() {
        let addr = pool.get(slot).addr();
        match pair {
            [Part::Payload(bytes), _] => {
                let _ = writeln!(out, "--- backend {addr} ---");
                out.push_str(&String::from_utf8_lossy(bytes));
                if !out.ends_with('\n') {
                    out.push('\n');
                }
            }
            [Part::Down(note), _] => {
                let _ = writeln!(out, "--- backend {addr} DOWN ({note}) ---");
            }
            _ => {
                let _ = writeln!(out, "--- backend {addr} (no reply) ---");
            }
        }
    }
    out.into_bytes()
}

/// Union of the backends' model listings, deduplicated and sorted — on
/// a healthy fleet every backend serves the same models, so the merge
/// is the common listing (a divergent fleet shows the union, which is
/// the honest answer).
fn render_models_aggregate(parts: &[Part]) -> Vec<u8> {
    let mut lines: Vec<String> = Vec::new();
    for part in parts {
        if let Part::Payload(bytes) = part {
            for line in String::from_utf8_lossy(bytes).lines() {
                if !line.trim().is_empty() && !lines.iter().any(|l| l == line) {
                    lines.push(line.to_string());
                }
            }
        }
    }
    lines.sort();
    let mut out = lines.join("\n");
    if !out.is_empty() {
        out.push('\n');
    }
    out.into_bytes()
}

/// Merge Prometheus text expositions by summing series with identical
/// names+labels across backends (counters and histogram buckets sum
/// exactly; summed gauges read as fleet totals). `# TYPE`/`# HELP`
/// comment lines are kept once. Families keep first-seen order, and a
/// series first seen in a later input joins the end of its family's
/// group, so every family stays one contiguous block. The merge of
/// deterministic inputs is deterministic.
fn merge_prometheus(texts: &[&str]) -> String {
    // family → its lines: comments verbatim, series as their sum keys.
    let mut families: Vec<(&str, Vec<&str>)> = Vec::new();
    let mut sums: HashMap<&str, f64> = HashMap::new();
    for text in texts {
        // The family of this input's latest `# TYPE`, which also owns
        // its `_bucket`/`_sum`/`_count` series.
        let mut typed = "";
        for line in text.lines().filter(|l| !l.is_empty()) {
            let (family, item) = if line.starts_with('#') {
                let mut words = line.split_whitespace().skip(1);
                let (kind, name) = (words.next().unwrap_or(""), words.next().unwrap_or(""));
                if kind == "TYPE" {
                    typed = name;
                }
                (name, line)
            } else {
                let Some((series, value)) = line.rsplit_once(' ') else { continue };
                let Ok(v) = value.parse::<f64>() else { continue };
                if let Some(acc) = sums.get_mut(series) {
                    *acc += v;
                    continue;
                }
                sums.insert(series, v);
                let name = series.split('{').next().unwrap_or(series);
                let owned = ["", "_bucket", "_sum", "_count"]
                    .iter()
                    .any(|suffix| !typed.is_empty() && name.strip_suffix(suffix) == Some(typed));
                (if owned { typed } else { name }, series)
            };
            match families.iter_mut().find(|(f, _)| *f == family) {
                Some((_, lines)) if item.starts_with('#') && lines.contains(&item) => {}
                Some((_, lines)) => lines.push(item),
                None => families.push((family, vec![item])),
            }
        }
    }
    let mut out = String::new();
    for item in families.iter().flat_map(|(_, lines)| lines) {
        out.push_str(item);
        if !item.starts_with('#') {
            let v = sums[item];
            out.push(' ');
            if v.fract() == 0.0 && v.abs() < 9.0e15 {
                out.push_str(&format!("{}", v as i64));
            } else {
                out.push_str(&format!("{v}"));
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_aggregate_sums_metrics_series_and_keeps_backend_text() {
        let addrs: Vec<SocketAddr> = ["127.0.0.1:7401", "127.0.0.1:7402", "127.0.0.1:7403"]
            .map(|a| a.parse().unwrap())
            .into();
        let pool = BackendPool::new(addrs, 1, &Registry::new());
        pool.get(2).mark_down();
        let metrics = |submitted: u64, hits: u64, tenants: &[(&str, [u64; 6])]| {
            let mut text = format!(
                "# TYPE vrdag_cache_hits_total counter\nvrdag_cache_hits_total {hits}\n\
                 # TYPE vrdag_cache_misses_total counter\nvrdag_cache_misses_total 2\n\
                 # TYPE vrdag_jobs_completed_total counter\nvrdag_jobs_completed_total {}\n\
                 # TYPE vrdag_jobs_submitted_total counter\nvrdag_jobs_submitted_total {submitted}\n\
                 # TYPE vrdag_tenant_jobs_total counter\n",
                submitted - 1
            );
            for (id, counts) in tenants {
                for (outcome, n) in TENANT_OUTCOMES.iter().zip(counts) {
                    text += &format!(
                        "vrdag_tenant_jobs_total{{outcome=\"{outcome}\",tenant=\"{id}\"}} {n}\n"
                    );
                }
            }
            text += "# TYPE vrdag_tenant_streamed_bytes_total counter\n";
            for (id, counts) in tenants {
                text += &format!(
                    "vrdag_tenant_streamed_bytes_total{{tenant=\"{id}\"}} {}\n",
                    counts[5]
                );
            }
            Part::Payload(text.into_bytes())
        };
        let parts = vec![
            Part::Payload(b"serve: node a\n".to_vec()),
            metrics(5, 1, &[("anonymous", [1, 1, 0, 0, 0, 600]), ("gold", [4, 3, 1, 0, 2, 1000])]),
            Part::Payload(b"serve: node b".to_vec()),
            metrics(7, 4, &[("gold", [6, 6, 0, 1, 0, 100])]),
            Part::Down("127.0.0.1:7403".to_string()),
            Part::Down("127.0.0.1:7403".to_string()),
        ];
        let text = String::from_utf8(render_stats_aggregate(&pool, &parts)).unwrap();
        // KiB streamed is the floor of the fleet's byte sum (1100 → 1),
        // not a sum of per-backend floors (0 + 0).
        assert_eq!(
            text,
            "route: 3 backends (2 up)  12 submitted / 10 completed across the fleet\n\
             \x20 cache: 5 hits / 4 misses fleet-wide\n\
             \x20 tenants (summed across backends):\n\
             \x20   anonymous        1 submitted / 1 completed (0 failed, 0 cancelled, 0 rejected)  0 KiB streamed\n\
             \x20   gold             10 submitted / 9 completed (1 failed, 1 cancelled, 2 rejected)  1 KiB streamed\n\
             --- backend 127.0.0.1:7401 ---\n\
             serve: node a\n\
             --- backend 127.0.0.1:7402 ---\n\
             serve: node b\n\
             --- backend 127.0.0.1:7403 DOWN (127.0.0.1:7403) ---\n"
        );
        // Anonymous-only traffic keeps the single-tenant summary.
        let parts = vec![
            Part::Payload(b"serve: node a\n".to_vec()),
            metrics(1, 0, &[("anonymous", [1, 0, 0, 0, 0, 0])]),
        ];
        let text = String::from_utf8(render_stats_aggregate(&pool, &parts)).unwrap();
        assert!(!text.contains("tenants"), "{text}");
    }

    #[test]
    fn prometheus_merge_sums_series_and_keeps_comments_once() {
        let a = "# TYPE vrdag_jobs_total counter\nvrdag_jobs_total{outcome=\"ok\"} 3\nvrdag_open_connections 1\n";
        let b = "# TYPE vrdag_jobs_total counter\nvrdag_jobs_total{outcome=\"ok\"} 4\nvrdag_open_connections 2\nvrdag_jobs_total{outcome=\"failed\"} 1\n";
        let merged = merge_prometheus(&[a, b]);
        let lines: Vec<&str> = merged.lines().collect();
        assert_eq!(
            lines,
            vec![
                "# TYPE vrdag_jobs_total counter",
                "vrdag_jobs_total{outcome=\"ok\"} 7",
                "vrdag_jobs_total{outcome=\"failed\"} 1",
                "vrdag_open_connections 3",
            ]
        );
        // A series only a later input has joins its family's group, so
        // every family stays contiguous.
        let a = "# TYPE vrdag_a counter\nvrdag_a{tenant=\"anonymous\"} 1\n# TYPE vrdag_b gauge\nvrdag_b 2\n";
        let b = "# TYPE vrdag_a counter\nvrdag_a{tenant=\"anonymous\"} 1\nvrdag_a{tenant=\"gold\"} 5\n# TYPE vrdag_b gauge\nvrdag_b 3\n";
        assert_eq!(
            merge_prometheus(&[a, b]),
            "# TYPE vrdag_a counter\nvrdag_a{tenant=\"anonymous\"} 2\nvrdag_a{tenant=\"gold\"} 5\n# TYPE vrdag_b gauge\nvrdag_b 5\n"
        );
        // Merging is value-summing, never value-concatenating: floats
        // survive with their fractional part.
        let merged = merge_prometheus(&["x_sum 0.5\n", "x_sum 0.25\n"]);
        assert_eq!(merged, "x_sum 0.75\n");
    }

    #[test]
    fn models_aggregate_dedups_identical_listings() {
        let line = "email nodes=12 attrs=3 size=4096 fingerprint=00000000deadbeef";
        let parts = vec![
            Part::Payload(format!("{line}\n").into_bytes()),
            Part::Payload(format!("{line}\n").into_bytes()),
        ];
        let merged = String::from_utf8(render_models_aggregate(&parts)).unwrap();
        assert_eq!(merged, format!("{line}\n"));
    }
}
