//! The non-blocking event loop behind both serving tiers: one thread
//! owns a listener, every client connection, and a
//! [`vrdag_poll::Poller`], and nothing about a connection ever blocks
//! it. The loop is the **connection layer**; what a request *does* is a
//! [`Dispatch`] mode plugged into it:
//!
//! * [`Frontend`](crate::Frontend) submits `GEN`/`SUB` jobs to a
//!   [`ServeHandle`](crate::ServeHandle);
//! * [`Router`](crate::Router) relays them over per-client backend
//!   links, registered on the same poller under the client's tokens.
//!
//! What the loop owns, identically for both:
//!
//! * **Connections are explicit state machines** ([`Phase`]): greeting →
//!   auth gate → line parse → dispatch → write mux. The reader side is
//!   an incremental [`LineScanner`]; the writer side is a
//!   per-connection outbox ([`ConnShared`]) drained opportunistically
//!   and re-armed on write readiness.
//! * **Off-loop work posts back through one completion pump**
//!   ([`Pump`]): a job's completion hook, or a backend dial running on
//!   its own short-lived thread, sends a message on the loop's channel
//!   and wakes the poller. Nothing on the loop thread waits on a job, a
//!   dial, or a backoff — a dispatch mode's timers run off the poll
//!   timeout ([`Dispatch::timer`]).
//! * **Backpressure is outbox-full → pause, not a blocked socket
//!   write.** A connection whose outbox holds [`FRAME_QUEUE`] frames
//!   stops being read (and, on the router, its backend links stop being
//!   read too), so a pipelining client cannot grow the reply queue
//!   without consuming replies. A worker pushing `EVT` frames parks on
//!   the bounded outbox with the escape hatches of
//!   [`ConnShared::push_streaming`].
//! * **A slow or stalled connection costs one socket, nothing else.**
//!   Every other connection's dispatch proceeds within the loop's
//!   per-wakeup fairness quantum ([`READ_QUANTUM`] bytes of reads per
//!   socket per wakeup).
//!
//! Teardown: `QUIT` stops reading and gives in-flight work
//! [`QUIT_DRAIN`] to finish before `OK BYE`; EOF, a failed `AUTH` or a
//! transport failure cancels in-flight work at once but still delivers
//! pending frames for up to [`TEARDOWN_DRAIN`]; a finished connection
//! half-closes and lingers ([`Phase::Linger`]) so unread pipelined input
//! never turns the close into a reset. A severed connection whose jobs
//! are still in flight lingers as a [`Phase::Zombie`] — invisible on the
//! wire, it keeps its slot until the pump has consumed every ticket.

use crate::codec::{LineScanner, ScanLine};
use crate::core::CancelToken;
use crate::protocol::{parse_request, ErrorCode, ProtocolError, ReplyHeader, Request};
use crate::tenant::{Tenant, TenantRegistry};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use vrdag_obs::{Counter, Gauge, Histogram, Logger, Registry};
use vrdag_poll::{raw_fd, Event, Interest, Poller, Token, Waker, WAKE_TOKEN};

/// Per-connection outbox depth, in frames. Bounded so a subscriber that
/// stops reading exerts backpressure all the way into the generating
/// worker (its `EVT` pushes park) instead of buffering an unbounded
/// stream in server memory; a connection at this depth also stops being
/// *read*, so pipelined requests cannot inflate the reply queue either.
pub(crate) const FRAME_QUEUE: usize = 64;

/// How long a `QUIT` waits for in-flight work to drain before the
/// connection's remaining work is cancelled and the socket severed. A
/// reading client drains long before this; the deadline only fires for
/// one that QUIT and then stopped consuming its own replies.
const QUIT_DRAIN: Duration = Duration::from_secs(60);

/// The same bound for abnormal teardown (EOF/transport failure), where
/// in-flight work is already cancelled and resolves within
/// snapshot-boundary latency — the deadline is a backstop for a peer
/// that half-closed and never reads its tail.
const TEARDOWN_DRAIN: Duration = Duration::from_secs(5);

/// How long a worker's `EVT` push may park on a full outbox before the
/// subscription is abandoned. A connection that is *alive but not
/// reading* (full TCP window + full outbox, no EOF, no CANCEL) would
/// otherwise pin a shared core worker indefinitely; past this deadline
/// the stream ends `status=cancelled` and the worker moves on, while
/// the connection itself stays open for a client that resumes.
const SUB_STALL_LIMIT: Duration = Duration::from_secs(30);

/// Bytes read from one socket per wakeup — the loop's fairness
/// quantum. A firehosing pipeliner (or backend) gets requeued behind
/// everyone else after this much input instead of monopolizing the loop.
pub(crate) const READ_QUANTUM: usize = 64 * 1024;

/// Stack staging buffer for non-blocking socket reads.
pub(crate) const READ_CHUNK: usize = 8 * 1024;

/// Back-off before re-arming accepts after a non-transient accept error
/// (EMFILE under descriptor exhaustion): level-triggered readiness
/// would otherwise re-report the listener instantly and busy-spin.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// Dispatch-latency histogram bounds: per-wakeup loop work sits in the
/// microsecond-to-millisecond range, far below the serve stack's
/// default job-duration buckets.
const DISPATCH_BUCKETS: &[f64] = &[
    0.000_01, 0.000_025, 0.000_05, 0.000_1, 0.000_25, 0.000_5, 0.001, 0.0025, 0.005, 0.01, 0.05,
    0.25, 1.0,
];

/// Poller token of the listener. Connection slot `n` owns the tokens
/// `1 + n * stride ..`: the client socket first, then one per backend
/// link of a routing loop ([`Dispatch::links`]). [`WAKE_TOKEN`] is the
/// cross-thread waker.
const LISTENER_TOKEN: Token = 0;

/// One complete wire frame: the header line (without its newline) plus
/// its payload bytes.
#[derive(Debug)]
pub(crate) struct Frame {
    line: String,
    payload: Vec<u8>,
}

impl Frame {
    pub(crate) fn new(header: ReplyHeader, payload: Vec<u8>) -> Frame {
        Frame { line: header.to_line(), payload }
    }

    pub(crate) fn header(header: ReplyHeader) -> Frame {
        Frame::new(header, Vec::new())
    }

    pub(crate) fn err(code: ErrorCode, tag: Option<String>, message: impl Into<String>) -> Frame {
        Frame::header(ReplyHeader::Err { code, tag, message: message.into() })
    }

    /// A frame forwarded verbatim: the header line exactly as a backend
    /// sent it.
    pub(crate) fn relayed(line: String, payload: Vec<u8>) -> Frame {
        Frame { line, payload }
    }
}

/// Best-effort recovery of a `tag=<valid>` token from a line that failed
/// to parse, so the `ERR` reply can still be demuxed to the request's
/// stream. Only a syntactically valid tag is echoed — never arbitrary
/// malformed input.
fn salvage_tag(line: &str) -> Option<String> {
    line.split_whitespace()
        .filter_map(|token| token.strip_prefix("tag="))
        .find(|raw| crate::protocol::valid_tag(raw))
        .map(str::to_string)
}

/// Why a worker-side [`ConnShared::push_streaming`] failed.
pub(crate) enum SendFail {
    /// The connection is gone (transport failure or teardown).
    Disconnected,
    /// The job's cancel token tripped while the outbox was full.
    Cancelled,
    /// The outbox stayed full for [`SUB_STALL_LIMIT`]: the subscriber is
    /// alive but not reading, and the stream is abandoned to free the
    /// worker.
    Stalled,
}

/// Outbox guarded state: the frame queue plus the connection's liveness
/// bit (dead ⇒ pushes fail fast and parked workers unblock).
struct OutboxState {
    frames: VecDeque<Frame>,
    dead: bool,
}

/// How often a parked `EVT` push re-checks its cancel token. The token
/// can trip without anyone signalling the condvar (a `CANCEL` processed
/// by the loop, a teardown deadline), so the park is a bounded nap, not
/// an unbounded wait.
const PUSH_RECHECK: Duration = Duration::from_millis(10);

/// The connection state shared with code running *off* the loop thread
/// — the `SUB` callbacks inside core workers. Everything else about a
/// connection is loop-private.
pub(crate) struct ConnShared {
    outbox: Mutex<OutboxState>,
    /// Signalled whenever the loop pops frames (space for a parked
    /// worker) or the connection dies.
    space: Condvar,
    /// Coalesces worker → loop "outbox went non-empty" signals: set by
    /// the pushing worker, cleared by the loop before it drains.
    dirty: AtomicBool,
}

impl ConnShared {
    fn new() -> ConnShared {
        ConnShared {
            outbox: Mutex::new(OutboxState { frames: VecDeque::new(), dead: false }),
            space: Condvar::new(),
            dirty: AtomicBool::new(false),
        }
    }

    /// Loop-side push (replies, completion frames, relayed frames). The
    /// loop is also the consumer, so this side is unbounded —
    /// boundedness comes from the read pause at [`FRAME_QUEUE`] plus the
    /// in-flight cap. `false` when the connection is already dead.
    pub(crate) fn push(&self, frame: Frame) -> bool {
        let mut state = self.outbox.lock().expect("outbox poisoned");
        if state.dead {
            return false;
        }
        state.frames.push_back(frame);
        true
    }

    /// Worker-side push for `EVT` frames: parks while the outbox is at
    /// capacity, aborting on cancellation, death, or a
    /// [`SUB_STALL_LIMIT`] stall.
    pub(crate) fn push_streaming(&self, token: &CancelToken, frame: Frame) -> Result<(), SendFail> {
        let stalled_at = Instant::now() + SUB_STALL_LIMIT;
        let mut state = self.outbox.lock().expect("outbox poisoned");
        loop {
            if state.dead {
                return Err(SendFail::Disconnected);
            }
            if state.frames.len() < FRAME_QUEUE {
                state.frames.push_back(frame);
                return Ok(());
            }
            if token.is_cancelled() {
                return Err(SendFail::Cancelled);
            }
            if Instant::now() >= stalled_at {
                return Err(SendFail::Stalled);
            }
            let (guard, _) = self
                .space
                .wait_timeout(state, PUSH_RECHECK)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            state = guard;
        }
    }

    /// Loop-side pop; wakes one parked worker when space opens.
    fn pop(&self) -> Option<Frame> {
        let mut state = self.outbox.lock().expect("outbox poisoned");
        let frame = state.frames.pop_front();
        if frame.is_some() {
            self.space.notify_one();
        }
        frame
    }

    pub(crate) fn len(&self) -> usize {
        self.outbox.lock().expect("outbox poisoned").frames.len()
    }

    /// Kill the connection's shared side: pushes fail from here on and
    /// every parked worker unblocks with `Disconnected`.
    fn mark_dead(&self) {
        let mut state = self.outbox.lock().expect("outbox poisoned");
        state.dead = true;
        state.frames.clear();
        self.space.notify_all();
    }
}

/// A message on the completion pump.
enum Posted<T> {
    /// Off-loop work for connection `conn` (incarnation `serial`)
    /// finished; stale serials are dropped, so a reused slot never sees
    /// its predecessor's results.
    Done { conn: usize, serial: u64, msg: T },
    /// A worker pushed into connection `conn`'s outbox.
    Dirty(usize),
}

/// The sending half of the completion pump: post a message on the
/// loop's channel and wake the poller. Cloned into job completion hooks,
/// streaming sinks, and dial threads.
pub(crate) struct Pump<T> {
    tx: Sender<Posted<T>>,
    waker: Waker,
}

impl<T> Clone for Pump<T> {
    fn clone(&self) -> Self {
        Pump { tx: self.tx.clone(), waker: self.waker.clone() }
    }
}

impl<T> Pump<T> {
    pub(crate) fn post(&self, conn: usize, serial: u64, msg: T) {
        let _ = self.tx.send(Posted::Done { conn, serial, msg });
        self.waker.wake();
    }

    /// Tell the loop that `shared` (connection `conn`) has frames to
    /// write; the dirty flag coalesces a burst into one signal.
    pub(crate) fn dirty(&self, conn: usize, shared: &ConnShared) {
        if !shared.dirty.swap(true, Ordering::SeqCst) {
            let _ = self.tx.send(Posted::Dirty(conn));
            self.waker.wake();
        }
    }
}

/// What handling one request line means for the connection.
enum Flow {
    Continue,
    /// Drain in-flight work, say `OK BYE [tag=…]`, close.
    Quit {
        tag: Option<String>,
    },
    /// A protocol-level rejection that closes the connection (failed or
    /// missing authentication): the error frame is already in the
    /// outbox, it gets flushed, no `OK BYE` follows.
    Fatal,
}

/// One connection as a [`Dispatch`] mode sees it.
pub(crate) struct Cx<'a, S> {
    /// Slab index; with [`serial`](Self::serial) the address of
    /// [`Pump::post`] messages for this connection.
    pub idx: usize,
    pub serial: u64,
    pub out: &'a Arc<ConnShared>,
    /// The tenant this connection runs as (anonymous until `AUTH`).
    pub tenant: &'a Arc<Tenant>,
    pub state: &'a mut S,
    pub poller: &'a mut dyn Poller,
    stride: usize,
}

impl<S> Cx<'_, S> {
    /// Poller token of this connection's backend link `link`.
    pub(crate) fn link_token(&self, link: usize) -> Token {
        1 + self.idx * self.stride + 1 + link
    }

    /// Queue a frame for the client.
    pub(crate) fn push(&self, frame: Frame) {
        self.out.push(frame);
    }
}

/// What a request does — the part of the loop that differs between the
/// serve tier and the router. The loop parses lines, runs the `AUTH`
/// gate, and answers `AUTH`/`PING`/`QUIT` itself; every other request
/// reaches [`dispatch`](Self::dispatch).
pub(crate) trait Dispatch {
    /// Per-connection dispatch state.
    type Conn;
    /// What off-loop work posts back through the [`Pump`].
    type Done;
    /// Log target of connection events.
    const TARGET: &'static str;

    /// Backend links a connection may hold, each with its own token.
    fn links(&self) -> usize {
        0
    }
    fn tenants(&self) -> &TenantRegistry;
    /// Must a connection `AUTH` before anything else?
    fn auth_required(&self) -> bool;
    /// Count one `AUTH` outcome (`ok`/`failed`/`required`).
    fn auth_outcome(&self, _outcome: &str) {}
    fn logger(&self) -> &Logger;
    fn open(&self) -> Self::Conn;
    /// Handle one authorized request other than `AUTH`/`PING`/`QUIT`.
    fn dispatch(&mut self, cx: &mut Cx<'_, Self::Conn>, req: Request);
    /// Consume one pump message for this connection.
    fn done(&mut self, cx: &mut Cx<'_, Self::Conn>, done: Self::Done);
    /// Work in flight; teardown phases wait for this to reach zero.
    fn in_flight(conn: &Self::Conn) -> usize;
    /// Teardown: abandon in-flight work as fast as possible.
    fn cancel_all(&mut self, cx: &mut Cx<'_, Self::Conn>);
    /// Readiness on backend link `link`.
    fn link_ready(&mut self, _cx: &mut Cx<'_, Self::Conn>, _link: usize, _ev: Event) {}
    /// Re-arm backend-link interest after the client outbox moved.
    fn sync_links(&mut self, _cx: &mut Cx<'_, Self::Conn>) {}
    /// Should the loop stop reading this client (its backend-bound
    /// output is backed up)?
    fn paused(_conn: &Self::Conn) -> bool {
        false
    }
    /// The connection's next timer, if any.
    fn timer(_conn: &Self::Conn) -> Option<Instant> {
        None
    }
    /// Run the timers due at `now`.
    fn fire(&mut self, _cx: &mut Cx<'_, Self::Conn>, _now: Instant) {}
}

/// Connection lifecycle (the explicit state machine).
enum Phase {
    /// Reading, dispatching, writing.
    Active,
    /// `QUIT` received: reading stopped; in-flight work gets until
    /// `deadline` to drain. When it drains in time, `OK BYE` goes out
    /// and the phase advances to [`Phase::FlushClose`]; at the deadline
    /// the remaining work is cancelled and the socket severed with no
    /// `BYE` (the client stopped reading long ago).
    Draining { bye_tag: Option<String>, deadline: Instant },
    /// EOF / fatal protocol rejection / transport failure: in-flight
    /// work is cancelled; pending frames still deliver until
    /// `deadline`, then the socket is severed.
    Closing { deadline: Instant },
    /// All work done: flush the outbox tail, then half-close and linger.
    FlushClose,
    /// Lingering close: the write side is shut (FIN sent) and incoming
    /// bytes are read and discarded until the peer closes or `deadline`
    /// passes. Closing abruptly instead would send an RST whenever
    /// pipelined input was still unread — and a client mid-burst (say a
    /// `GEN` right behind a failing `AUTH`) would then see its *write*
    /// fail with a broken pipe before it ever read the error frame.
    Linger { deadline: Instant },
    /// Socket severed with jobs still in flight: holds the slot (so it
    /// cannot be reused while completions could still route here) until
    /// the pump consumes every ticket.
    Zombie,
}

/// One connection, loop-private except for [`Conn::shared`].
struct Conn<S> {
    stream: TcpStream,
    shared: Arc<ConnShared>,
    scanner: LineScanner,
    phase: Phase,
    /// Incarnation of this slot (see [`Posted::Done`]).
    serial: u64,
    /// The tenant this connection runs as — the anonymous tenant until
    /// a successful `AUTH` rebinds it.
    tenant: Arc<Tenant>,
    /// Has this connection presented a valid token yet?
    authed: bool,
    /// Serialized bytes of the frame currently being written, and the
    /// write cursor into it.
    wbuf: Vec<u8>,
    wpos: usize,
    /// Interest currently registered with the poller.
    interest: Interest,
    /// Whether the socket is still registered and open (false once
    /// severed; the slot may outlive the socket as a [`Phase::Zombie`]).
    socket_open: bool,
    /// Counted against the connection cap and the open-connections
    /// gauge (false for over-cap greeting rejections).
    accepted: bool,
    state: S,
}

impl<S> Conn<S> {
    /// Is this connection still reading request lines?
    fn reading(&self) -> bool {
        matches!(self.phase, Phase::Active) && self.socket_open
    }

    /// The teardown deadline this connection is running against, if any.
    fn deadline(&self) -> Option<Instant> {
        match self.phase {
            Phase::Draining { deadline, .. }
            | Phase::Closing { deadline }
            | Phase::Linger { deadline } => Some(deadline),
            _ => None,
        }
    }
}

/// The loop's own instruments.
pub(crate) struct LoopMetrics {
    open: Gauge,
    accepted: Counter,
    rejected_cap: Counter,
    wakeups: Counter,
    dispatch_seconds: Histogram,
}

impl LoopMetrics {
    /// `open` is the open-connections gauge; the connection counters
    /// and wakeup/dispatch instruments register into `registry`.
    pub(crate) fn new(open: Gauge, registry: &Registry) -> LoopMetrics {
        LoopMetrics {
            open,
            accepted: registry.counter("vrdag_connections_total", &[("outcome", "accepted")]),
            rejected_cap: registry
                .counter("vrdag_connections_total", &[("outcome", "rejected_cap")]),
            wakeups: registry.counter("vrdag_reactor_wakeups_total", &[]),
            dispatch_seconds: registry.histogram_with(
                "vrdag_reactor_dispatch_seconds",
                &[],
                DISPATCH_BUCKETS,
            ),
        }
    }
}

/// A running event loop, owned by [`Frontend`](crate::Frontend) or
/// [`Router`](crate::Router).
pub(crate) struct LoopHandle {
    stop: Arc<AtomicBool>,
    /// Interrupts the loop's poll wait so the stop flag is noticed.
    waker: Waker,
    thread: Option<std::thread::JoinHandle<()>>,
    open: Arc<AtomicUsize>,
}

impl LoopHandle {
    /// Live accepted connections.
    pub(crate) fn open_connections(&self) -> usize {
        self.open.load(Ordering::SeqCst)
    }

    /// Stop the loop, sever open connections, and join the thread.
    /// Idempotent.
    pub(crate) fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        self.waker.wake();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Start an event loop on its own thread, serving `listener` (already
/// non-blocking) with the dispatch mode `make` builds around the loop's
/// pump.
pub(crate) fn spawn<D>(
    name: &str,
    listener: TcpListener,
    poller: Box<dyn Poller>,
    max_connections: Option<usize>,
    metrics: LoopMetrics,
    make: impl FnOnce(Pump<D::Done>) -> D,
) -> LoopHandle
where
    D: Dispatch + Send + 'static,
    D::Conn: Send,
    D::Done: Send + 'static,
{
    let (tx, pump_rx) = mpsc::channel();
    let waker = poller.waker();
    let mode = make(Pump { tx, waker: waker.clone() });
    let stop = Arc::new(AtomicBool::new(false));
    let open = Arc::new(AtomicUsize::new(0));
    metrics.open.set(0);
    let reactor = Reactor {
        stride: 1 + mode.links(),
        mode,
        listener,
        poller,
        conns: Vec::new(),
        free: Vec::new(),
        next_serial: 0,
        max_connections,
        open: Arc::clone(&open),
        metrics,
        pump_rx,
        stop: Arc::clone(&stop),
        pending_dispatch: None,
        accept_backoff: None,
        events: Vec::new(),
    };
    let thread = std::thread::Builder::new()
        .name(name.to_string())
        .spawn(move || reactor.run())
        .expect("spawn event-loop thread");
    LoopHandle { stop, waker, thread: Some(thread), open }
}

/// The event loop itself, consumed by [`Reactor::run`] on its thread.
struct Reactor<D: Dispatch> {
    mode: D,
    listener: TcpListener,
    poller: Box<dyn Poller>,
    /// Connection slab.
    conns: Vec<Option<Conn<D::Conn>>>,
    free: Vec<usize>,
    /// Poller tokens per connection slot (see [`LISTENER_TOKEN`]).
    stride: usize,
    next_serial: u64,
    max_connections: Option<usize>,
    /// Accepted live connections (shared with the owning handle).
    open: Arc<AtomicUsize>,
    metrics: LoopMetrics,
    pump_rx: Receiver<Posted<D::Done>>,
    stop: Arc<AtomicBool>,
    /// The previous iteration's dispatch duration, published into
    /// `dispatch_seconds` at the *start* of the next wakeup. Deferring
    /// by one wakeup keeps a `METRICS` render (which happens
    /// mid-dispatch) consistent: it reflects every completed dispatch
    /// and the wakeup serving it, so an HTTP `/metrics` scrape of the
    /// then-idle loop sees identical bytes.
    pending_dispatch: Option<f64>,
    /// Listener re-arm time after an accept error (see [`ACCEPT_BACKOFF`]).
    accept_backoff: Option<Instant>,
    events: Vec<Event>,
}

impl<D: Dispatch> Reactor<D> {
    /// The loop. Returns once the stop flag is observed (after a waker
    /// nudge); tears down every connection on the way out.
    fn run(mut self) {
        if self.poller.register(raw_fd(&self.listener), LISTENER_TOKEN, Interest::READABLE).is_err()
        {
            return;
        }
        while !self.stop.load(Ordering::SeqCst) {
            let timeout = self.poll_timeout();
            let mut events = std::mem::take(&mut self.events);
            if self.poller.poll(&mut events, timeout).is_err() {
                events.clear();
            }
            self.metrics.wakeups.inc();
            if let Some(elapsed) = self.pending_dispatch.take() {
                self.metrics.dispatch_seconds.observe(elapsed);
            }
            let started = Instant::now();
            if self.stop.load(Ordering::SeqCst) {
                self.events = events;
                break;
            }
            for ev in &events {
                match ev.token {
                    WAKE_TOKEN => {}
                    LISTENER_TOKEN => self.accept_ready(),
                    token => {
                        let (idx, sub) = ((token - 1) / self.stride, (token - 1) % self.stride);
                        if sub == 0 {
                            self.conn_event(idx, ev.readable);
                        } else {
                            self.with_cx(idx, |mode, cx| mode.link_ready(cx, sub - 1, *ev));
                            self.settle(idx);
                        }
                    }
                }
            }
            self.events = events;
            // The completion pump: one drain per wakeup covers every
            // piece of off-loop work that finished since.
            while let Ok(posted) = self.pump_rx.try_recv() {
                match posted {
                    Posted::Done { conn, serial, msg } => {
                        if self.conns.get(conn).and_then(Option::as_ref).map(|c| c.serial)
                            == Some(serial)
                        {
                            self.with_cx(conn, |mode, cx| mode.done(cx, msg));
                            self.settle(conn);
                        }
                    }
                    Posted::Dirty(idx) => {
                        if let Some(conn) = self.conns.get(idx).and_then(Option::as_ref) {
                            conn.shared.dirty.store(false, Ordering::SeqCst);
                        }
                        self.flush(idx);
                    }
                }
            }
            self.check_deadlines();
            // Measured now, published at the next wakeup (see the
            // `pending_dispatch` field docs).
            self.pending_dispatch = Some(started.elapsed().as_secs_f64());
        }
        self.teardown_all();
    }

    /// Run `f` on connection `idx` and the dispatch mode together.
    fn with_cx<R>(
        &mut self,
        idx: usize,
        f: impl FnOnce(&mut D, &mut Cx<'_, D::Conn>) -> R,
    ) -> Option<R> {
        let conn = self.conns.get_mut(idx)?.as_mut()?;
        let mut cx = Cx {
            idx,
            serial: conn.serial,
            out: &conn.shared,
            tenant: &conn.tenant,
            state: &mut conn.state,
            poller: &mut *self.poller,
            stride: self.stride,
        };
        Some(f(&mut self.mode, &mut cx))
    }

    /// Next timer the loop must honour: teardown deadlines, dispatch
    /// timers, and the accept re-arm. `None` blocks until IO or a wakeup.
    fn poll_timeout(&self) -> Option<Duration> {
        let mut next: Option<Instant> = self.accept_backoff;
        for conn in self.conns.iter().flatten() {
            for at in [conn.deadline(), D::timer(&conn.state)].into_iter().flatten() {
                next = Some(next.map_or(at, |cur| cur.min(at)));
            }
        }
        next.map(|at| at.saturating_duration_since(Instant::now()))
    }

    /// Accept every pending connection (the listener is level-triggered,
    /// so anything left un-accepted re-reports immediately).
    fn accept_ready(&mut self) {
        if self.accept_backoff.is_some() {
            return;
        }
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => self.admit(stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // EMFILE and friends: park accepts briefly instead of
                // busy-spinning on a perpetually-readable listener.
                Err(_) => {
                    self.accept_backoff = Some(Instant::now() + ACCEPT_BACKOFF);
                    break;
                }
            }
        }
    }

    /// Register one just-accepted stream. Over the cap it becomes a
    /// greeting-rejection connection whose `ERR too-many-connections`
    /// flushes through the same event loop as everything else, so one
    /// unreadable rejected client cannot stall accepts.
    fn admit(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        // Replies are written frame-at-a-time; without TCP_NODELAY,
        // Nagle holds each small frame for the peer's delayed ACK
        // (~40ms) and a lock-step client crawls. Best effort — a socket
        // that rejects the option still works, just slower.
        let _ = stream.set_nodelay(true);
        let over_cap =
            self.max_connections.is_some_and(|cap| self.open.load(Ordering::SeqCst) >= cap);
        let accepted = !over_cap;
        self.next_serial += 1;
        let conn = Conn {
            stream,
            shared: Arc::new(ConnShared::new()),
            scanner: LineScanner::default(),
            phase: if accepted { Phase::Active } else { Phase::FlushClose },
            serial: self.next_serial,
            tenant: self.mode.tenants().anonymous(),
            authed: false,
            wbuf: Vec::new(),
            wpos: 0,
            interest: Interest { readable: false, writable: false },
            socket_open: true,
            accepted,
            state: self.mode.open(),
        };
        if accepted {
            self.metrics.accepted.inc();
            self.set_open(self.open.load(Ordering::SeqCst) + 1);
        } else {
            self.metrics.rejected_cap.inc();
            let cap = self.max_connections.expect("over_cap implies a cap");
            conn.shared.push(Frame::err(ErrorCode::TooManyConnections, None, format!("cap={cap}")));
        }
        let idx = match self.free.pop() {
            Some(idx) => {
                self.conns[idx] = Some(conn);
                idx
            }
            None => {
                self.conns.push(Some(conn));
                self.conns.len() - 1
            }
        };
        self.update_interest(idx, true);
        // A rejection usually flushes (and frees the slot) right here.
        self.flush(idx);
    }

    fn set_open(&self, n: usize) {
        self.open.store(n, Ordering::SeqCst);
        self.metrics.open.set(n as u64);
    }

    /// IO readiness on connection slot `idx`. Stale tokens (a slot freed
    /// or reused earlier in the same event batch) are harmless: all IO
    /// is non-blocking, so a spurious read/flush observes `WouldBlock`
    /// and moves on — the same advisory-readiness contract the scan
    /// backend relies on.
    fn conn_event(&mut self, idx: usize, readable: bool) {
        if self.conns.get(idx).and_then(Option::as_ref).is_none() {
            return;
        }
        if readable {
            self.conn_readable(idx);
        }
        self.flush(idx);
    }

    /// Drain up to [`READ_QUANTUM`] bytes of request input, dispatching
    /// complete lines as they fall out of the scanner. A lingering
    /// connection drains and *discards* instead, watching for the peer's
    /// close.
    fn conn_readable(&mut self, idx: usize) {
        if let Some(conn) = self.conns[idx].as_ref() {
            if matches!(conn.phase, Phase::Linger { .. }) {
                self.linger_readable(idx);
                return;
            }
        }
        let mut consumed = 0usize;
        let mut eof = false;
        let mut buf = [0u8; READ_CHUNK];
        loop {
            let Some(conn) = self.conns[idx].as_mut() else { return };
            if !conn.reading()
                || conn.shared.len() >= FRAME_QUEUE
                || D::paused(&conn.state)
                || consumed >= READ_QUANTUM
            {
                break;
            }
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    eof = true;
                    break;
                }
                Ok(n) => {
                    consumed += n;
                    self.feed_bytes(idx, &buf[..n]);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // A read transport failure tears down like EOF.
                Err(_) => {
                    eof = true;
                    break;
                }
            }
        }
        if eof {
            // The final unterminated line still counts (a client that
            // wrote `PING` and shut down its write side gets its PONG).
            let Some(conn) = self.conns[idx].as_mut() else { return };
            if let Some(last) = conn.scanner.finish() {
                self.handle_scan_line(idx, last);
            }
            if self.conns[idx].as_ref().is_some_and(|c| matches!(c.phase, Phase::Active)) {
                self.begin_close(idx);
            }
        } else {
            // Quantum or pause hit with the socket possibly still
            // readable: level-triggered readiness (or the scan rotation)
            // brings us back next wakeup as long as interest says read.
            self.update_interest(idx, false);
        }
    }

    /// Read-and-discard on a [`Phase::Linger`] connection until the peer
    /// closes (EOF fully releases the slot) or the socket would block.
    fn linger_readable(&mut self, idx: usize) {
        let mut buf = [0u8; READ_CHUNK];
        loop {
            let Some(conn) = self.conns[idx].as_mut() else { return };
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    self.sever(idx);
                    return;
                }
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.sever(idx);
                    return;
                }
            }
        }
    }

    /// Split a raw chunk into lines and dispatch each; lines buffered
    /// behind a phase change (e.g. pipelined input after `QUIT`) are
    /// discarded.
    fn feed_bytes(&mut self, idx: usize, bytes: &[u8]) {
        let Some(conn) = self.conns[idx].as_mut() else { return };
        let mut lines = Vec::new();
        conn.scanner.feed(bytes, |line| lines.push(line));
        for line in lines {
            if !self.conns[idx].as_ref().is_some_and(|c| matches!(c.phase, Phase::Active)) {
                break;
            }
            self.handle_scan_line(idx, line);
        }
    }

    /// Parse and dispatch one scanned line, applying the auth gate and
    /// the flow transitions.
    fn handle_scan_line(&mut self, idx: usize, raw: ScanLine) {
        let parsed = match raw {
            ScanLine::TooLong { len } => Err(Frame::err(
                ErrorCode::LineTooLong,
                None,
                ProtocolError::LineTooLong { len }.to_string(),
            )),
            ScanLine::Line(raw) => match String::from_utf8(raw) {
                Err(_) => {
                    Err(Frame::err(ErrorCode::BadRequest, None, ProtocolError::NotUtf8.to_string()))
                }
                Ok(line) => match parse_request(&line) {
                    // An empty line is a keep-alive no-op, not an error.
                    Err(ProtocolError::Empty) => return,
                    // Echo a recoverable tag even on parse failures, so
                    // a pipelining client can terminate that tag's
                    // stream instead of waiting forever on it.
                    Err(e) => Err(Frame::err(e.code(), salvage_tag(&line), e.to_string())),
                    Ok(req) => Ok(req),
                },
            },
        };
        let Some(conn) = self.conns[idx].as_mut() else { return };
        let needs_auth = self.mode.auth_required() && !conn.authed;
        let flow = match parsed {
            // AUTH is the one command an unauthenticated connection may
            // issue; anything else (malformed lines included) on an
            // auth-enabled loop is answered `ERR auth-required` and the
            // connection is closed — unauthenticated input never
            // reaches dispatch.
            Ok(Request::Auth { token, tag }) => self.dispatch_auth(idx, token, tag),
            Ok(_) | Err(_) if needs_auth => {
                self.mode.auth_outcome("required");
                conn.shared.push(Frame::err(
                    ErrorCode::AuthRequired,
                    None,
                    "authenticate first: AUTH token=<token>",
                ));
                Flow::Fatal
            }
            Err(frame) => {
                conn.shared.push(frame);
                Flow::Continue
            }
            Ok(Request::Ping { tag }) => {
                conn.shared.push(Frame::header(ReplyHeader::Pong { tag }));
                Flow::Continue
            }
            Ok(Request::Quit { tag }) => Flow::Quit { tag },
            Ok(req) => {
                self.with_cx(idx, |mode, cx| mode.dispatch(cx, req));
                Flow::Continue
            }
        };
        match flow {
            Flow::Continue => {}
            Flow::Quit { tag } => self.begin_quit(idx, tag),
            Flow::Fatal => self.begin_close(idx),
        }
    }

    /// Handle `AUTH token=…`. Without mandatory auth the greeting is
    /// optional and acknowledged as the anonymous tenant; with it a
    /// valid token binds the connection to its tenant and an invalid
    /// token closes the connection.
    fn dispatch_auth(&mut self, idx: usize, token: String, tag: Option<String>) -> Flow {
        let Some(conn) = self.conns[idx].as_mut() else { return Flow::Continue };
        if !self.mode.auth_required() {
            let tenant = conn.tenant.id().to_string();
            conn.shared.push(Frame::header(ReplyHeader::Auth { tag, tenant }));
            return Flow::Continue;
        }
        if conn.authed {
            conn.shared.push(Frame::err(
                ErrorCode::BadRequest,
                tag,
                "connection is already authenticated",
            ));
            return Flow::Continue;
        }
        match self.mode.tenants().authenticate(&token) {
            Some(tenant) => {
                let id = tenant.id().to_string();
                self.mode.auth_outcome("ok");
                self.mode.logger().info(
                    D::TARGET,
                    "connection authenticated",
                    &[("tenant", id.clone())],
                );
                conn.tenant = tenant;
                conn.authed = true;
                conn.shared.push(Frame::header(ReplyHeader::Auth { tag, tenant: id }));
                Flow::Continue
            }
            None => {
                self.mode.auth_outcome("failed");
                self.mode.logger().warn(D::TARGET, "auth failed: invalid token", &[]);
                conn.shared.push(Frame::err(ErrorCode::AuthFailed, tag, "invalid token"));
                Flow::Fatal
            }
        }
    }

    /// After off-loop work landed on connection `idx`: advance teardown
    /// phases waiting on it and write what it produced.
    fn settle(&mut self, idx: usize) {
        self.after_pending_change(idx);
        self.flush(idx);
    }

    /// Advance teardown phases that wait on in-flight work.
    fn after_pending_change(&mut self, idx: usize) {
        let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else { return };
        if D::in_flight(&conn.state) > 0 {
            return;
        }
        match &conn.phase {
            Phase::Draining { bye_tag, .. } => {
                conn.shared.push(Frame::header(ReplyHeader::Bye { tag: bye_tag.clone() }));
                conn.phase = Phase::FlushClose;
            }
            Phase::Closing { .. } => conn.phase = Phase::FlushClose,
            Phase::Zombie => self.release_slot(idx),
            Phase::Active | Phase::FlushClose | Phase::Linger { .. } => {}
        }
    }

    /// `QUIT`: stop reading, give in-flight work a bounded window to
    /// drain so every tagged reply lands before `OK BYE` (cancel yours
    /// first if you are in a hurry).
    fn begin_quit(&mut self, idx: usize, tag: Option<String>) {
        let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else { return };
        conn.phase = Phase::Draining { bye_tag: tag, deadline: Instant::now() + QUIT_DRAIN };
        self.after_pending_change(idx);
        self.update_interest(idx, false);
        self.flush(idx);
    }

    /// EOF / fatal rejection / transport failure: cancel in-flight work
    /// immediately (nothing keeps working for a peer that is gone), but
    /// keep the write side up so pending frames still deliver — bounded
    /// by [`TEARDOWN_DRAIN`].
    fn begin_close(&mut self, idx: usize) {
        self.with_cx(idx, |mode, cx| mode.cancel_all(cx));
        let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else { return };
        conn.phase = Phase::Closing { deadline: Instant::now() + TEARDOWN_DRAIN };
        self.after_pending_change(idx);
        self.update_interest(idx, false);
        self.flush(idx);
    }

    /// Serialize-and-write the connection's output until the socket
    /// would block or there is nothing left; moves a finished
    /// [`Phase::FlushClose`] connection into its lingering close.
    fn flush(&mut self, idx: usize) {
        let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else { return };
        if !conn.socket_open {
            return;
        }
        let mut broken = false;
        loop {
            if conn.wpos >= conn.wbuf.len() {
                let Some(frame) = conn.shared.pop() else { break };
                conn.wbuf.clear();
                conn.wpos = 0;
                conn.wbuf.extend_from_slice(frame.line.as_bytes());
                conn.wbuf.push(b'\n');
                conn.wbuf.extend_from_slice(&frame.payload);
            }
            match conn.stream.write(&conn.wbuf[conn.wpos..]) {
                Ok(0) => {
                    broken = true;
                    break;
                }
                Ok(n) => conn.wpos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    broken = true;
                    break;
                }
            }
        }
        if broken {
            self.sever(idx);
            return;
        }
        let flushed = conn.wpos >= conn.wbuf.len() && conn.shared.len() == 0;
        if flushed && matches!(conn.phase, Phase::FlushClose) {
            // Graceful finish: everything written, half-close (FIN) and
            // linger — see [`Phase::Linger`] for why not a hard close.
            let _ = conn.stream.shutdown(Shutdown::Write);
            conn.phase = Phase::Linger { deadline: Instant::now() + TEARDOWN_DRAIN };
            self.update_interest(idx, false);
            // Any input that raced the close is pending discard; the
            // peer may even have closed already.
            self.linger_readable(idx);
            return;
        }
        self.update_interest(idx, false);
    }

    /// Re-register the connection's poller interest when it changed:
    /// read while active and below the outbox pause threshold (or
    /// lingering, to notice the peer's close), write while output is
    /// queued. Backend links follow the client's outbox.
    fn update_interest(&mut self, idx: usize, fresh: bool) {
        let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else { return };
        if !conn.socket_open {
            return;
        }
        let outbox_len = conn.shared.len();
        let readable = match conn.phase {
            Phase::Active => outbox_len < FRAME_QUEUE && !D::paused(&conn.state),
            Phase::Linger { .. } => true,
            _ => false,
        };
        let want = Interest { readable, writable: conn.wpos < conn.wbuf.len() || outbox_len > 0 };
        let token = 1 + idx * self.stride;
        if fresh {
            conn.interest = want;
            let _ = self.poller.register(raw_fd(&conn.stream), token, want);
        } else if want != conn.interest {
            conn.interest = want;
            let _ = self.poller.reregister(raw_fd(&conn.stream), token, want);
        }
        self.with_cx(idx, |mode, cx| mode.sync_links(cx));
    }

    /// Hard-close the socket. The slot itself is only released once no
    /// in-flight job can still complete into it; until then it lingers
    /// as a [`Phase::Zombie`].
    fn sever(&mut self, idx: usize) {
        let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else { return };
        if conn.socket_open {
            let _ = self.poller.deregister(raw_fd(&conn.stream), 1 + idx * self.stride);
            let _ = conn.stream.shutdown(Shutdown::Both);
            conn.socket_open = false;
        }
        conn.shared.mark_dead();
        self.with_cx(idx, |mode, cx| mode.cancel_all(cx));
        let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else { return };
        if D::in_flight(&conn.state) == 0 {
            self.release_slot(idx);
        } else {
            conn.phase = Phase::Zombie;
        }
    }

    /// Free a slot for reuse (and the connection count, if it held one).
    fn release_slot(&mut self, idx: usize) {
        let Some(conn) = self.conns[idx].take() else { return };
        if conn.accepted {
            self.set_open(self.open.load(Ordering::SeqCst).saturating_sub(1));
        }
        self.free.push(idx);
    }

    /// Enforce teardown deadlines, dispatch timers and the accept
    /// back-off.
    fn check_deadlines(&mut self) {
        let now = Instant::now();
        if self.accept_backoff.is_some_and(|at| now >= at) {
            self.accept_backoff = None;
            self.accept_ready();
        }
        for idx in 0..self.conns.len() {
            let Some(conn) = self.conns[idx].as_ref() else { continue };
            if conn.deadline().is_some_and(|at| now >= at) {
                // Past the drain deadline the remaining work is
                // cancelled and the socket severed, which also unblocks
                // any parked worker (no BYE — the client stopped reading
                // long ago).
                self.sever(idx);
            } else if D::timer(&conn.state).is_some_and(|at| now >= at) {
                self.with_cx(idx, |mode, cx| mode.fire(cx, now));
                self.settle(idx);
            }
        }
    }

    /// Loop exit: sever everything. Marking every outbox dead and
    /// dropping the pending work unblocks all workers (their pushes
    /// fail, their reply sends land on dropped channels); the service
    /// core itself stays up for other handles.
    fn teardown_all(&mut self) {
        for idx in 0..self.conns.len() {
            if self.conns[idx].is_some() {
                self.sever(idx);
                // A zombie's pending tickets die with the slot: the pump
                // is gone, nothing can route to it anymore.
                if self.conns[idx].is_some() {
                    self.release_slot(idx);
                }
            }
        }
        self.set_open(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pong() -> Frame {
        Frame::header(ReplyHeader::Pong { tag: None })
    }

    #[test]
    fn push_streaming_aborts_on_a_full_outbox_when_cancelled() {
        // Capacity-full outbox that nobody drains: a plain push would
        // park forever. push_streaming must fail once the token trips,
        // freeing the (worker) thread.
        let shared = ConnShared::new();
        for _ in 0..FRAME_QUEUE {
            assert!(shared.push(pong()));
        }
        let token = CancelToken::new();
        let cancel_from = token.clone();
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            cancel_from.cancel();
        });
        let delivered = shared.push_streaming(&token, pong());
        assert!(
            matches!(delivered, Err(SendFail::Cancelled)),
            "push must abort once the token trips"
        );
        canceller.join().unwrap();
        // Dead connection: immediate failure, no parked workers left
        // behind, and loop-side pushes fail too.
        shared.mark_dead();
        assert!(matches!(
            shared.push_streaming(&CancelToken::new(), pong()),
            Err(SendFail::Disconnected)
        ));
        assert!(!shared.push(pong()));
    }

    #[test]
    fn outbox_pop_makes_space_for_parked_pushes() {
        let shared = Arc::new(ConnShared::new());
        for _ in 0..FRAME_QUEUE {
            assert!(shared.push(pong()));
        }
        let token = CancelToken::new();
        let pusher = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || shared.push_streaming(&token, pong()))
        };
        std::thread::sleep(Duration::from_millis(20));
        assert!(shared.pop().is_some(), "outbox holds frames");
        let pushed = pusher.join().unwrap();
        assert!(matches!(pushed, Ok(())), "push must land once space opens");
        assert_eq!(shared.len(), FRAME_QUEUE);
    }
}
