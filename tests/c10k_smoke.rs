//! Connection-scale smoke tests for the reactor frontend: thousands of
//! parked connections with pipelined work completing underneath them, a
//! stalled `SUB` reader that must not block sibling connections, and a
//! ten-thousand-job single-connection run whose resident set must stay
//! flat (the in-flight-table bookkeeping regression test — the old
//! thread-per-waiter design leaks a stack per job here).
//!
//! Every test opens a large share of the process fd budget, so the
//! suite serializes itself behind one mutex and sizes its herd from the
//! soft `RLIMIT_NOFILE` (override with `VRDAG_C10K_CONNS`).

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use vrdag_suite::prelude::*;
use vrdag_suite::serve::poll_os;
use vrdag_suite::serve::protocol::{EndStatus, GenSpec, ReplyHeader, Request, WireFormat};

/// Each test opens thousands of descriptors — serialize them so two
/// herds never compete for the same fd budget. The lock guards fds, not
/// data, so a poisoned guard from a panicked predecessor is harmless.
static HERD: Mutex<()> = Mutex::new(());

fn herd_lock() -> MutexGuard<'static, ()> {
    HERD.lock().unwrap_or_else(|e| e.into_inner())
}

fn fitted_model(seed: u64) -> Vrdag {
    let g = datasets::generate(&datasets::tiny(), seed);
    let mut cfg = VrdagConfig::test_small();
    cfg.epochs = 2;
    let mut model = Vrdag::new(cfg);
    let mut rng = StdRng::seed_from_u64(seed);
    model.fit(&g, &mut rng).unwrap();
    model
}

fn serve_fixture(workers: usize, cache_entries: usize) -> (ServeHandle, Frontend) {
    let registry = ModelRegistry::new();
    registry.register("m", &fitted_model(11)).unwrap();
    let handle = ServeHandle::with_config(
        registry,
        ServeConfig { workers, cache: CacheBudget::entries(cache_entries), ..Default::default() },
    )
    .unwrap();
    // Uncapped: the herd is sized from the fd budget and may exceed the
    // frontend's 4096-connection default.
    let frontend = Frontend::bind_with(
        handle.clone(),
        "127.0.0.1:0",
        FrontendConfig { max_connections: None, ..Default::default() },
    )
    .unwrap();
    (handle, frontend)
}

/// Ground truth for a `(t, seed)` reply, generated through a direct
/// in-process handle so the frontend under test serves only TCP work.
fn direct_tsv_payload(t_len: usize, seed: u64) -> Vec<u8> {
    let registry = ModelRegistry::new();
    registry.register("m", &fitted_model(11)).unwrap();
    let direct = ServeHandle::new(registry, 1).unwrap();
    let ticket = direct.submit(GenRequest::new("m", t_len, seed, GenSink::InMemory)).unwrap();
    let result = ticket.wait().unwrap();
    assert!(result.is_ok(), "{:?}", result.error);
    let payload =
        vrdag_suite::graph::io::write_tsv(result.graph.as_deref().unwrap(), Vec::new()).unwrap();
    direct.shutdown();
    payload
}

/// How many connections the environment can host: half the fd budget
/// (one server fd per client fd) minus slack for the process's own
/// files, capped at 5000. `VRDAG_C10K_CONNS` overrides the computed
/// size on machines where the heuristic is wrong.
fn herd_size() -> usize {
    if let Some(n) = std::env::var("VRDAG_C10K_CONNS").ok().and_then(|v| v.parse().ok()) {
        return n;
    }
    let budget = poll_os::raise_nofile_limit().unwrap_or(1024);
    (budget.saturating_sub(512) / 2).min(5_000) as usize
}

/// Extract one sample value from Prometheus exposition text. `series`
/// must be the full series name; the ` ` separator keeps `foo` from
/// matching `foo_peak`.
fn prom_sample(text: &str, series: &str) -> Option<u64> {
    text.lines().find_map(|line| line.strip_prefix(series)?.strip_prefix(' ')?.parse().ok())
}

/// The C10K claim itself: park thousands of idle connections, and while
/// they sit there (a) pipelined tagged GEN + SUB work on active
/// connections still completes bit-identically, (b) idle connections
/// still answer PING, and (c) the reactor gauges agree with the herd.
#[test]
fn thousands_of_idle_connections_while_tagged_work_completes() {
    let _guard = herd_lock();
    let target = herd_size();
    if target < 512 {
        eprintln!("c10k smoke skipped: fd budget allows only {target} connections");
        return;
    }
    let expected = direct_tsv_payload(3, 5);
    let (handle, frontend) = serve_fixture(2, 8);
    let addr = frontend.local_addr();

    // Park the idle herd from 8 opener threads; each holds its share of
    // sockets until released. 16 of the herd stay on this thread as
    // LineClients so we can PING through the parked mass later.
    const SAMPLERS: usize = 16;
    const ACTIVE: usize = 32;
    let idle_target = target - SAMPLERS - ACTIVE;
    let release = Arc::new(AtomicBool::new(false));
    let openers: Vec<_> = (0..8)
        .map(|i| {
            let release = Arc::clone(&release);
            let share = idle_target / 8 + usize::from(i < idle_target % 8);
            std::thread::spawn(move || {
                let conns: Vec<_> =
                    (0..share).map(|_| TcpStream::connect(addr).expect("connect")).collect();
                while !release.load(Ordering::Acquire) {
                    std::thread::sleep(Duration::from_millis(10));
                }
                drop(conns);
            })
        })
        .collect();
    let mut samplers: Vec<_> =
        (0..SAMPLERS).map(|_| LineClient::connect(addr).expect("sampler connect")).collect();

    // Wait for the whole herd to be accepted *and registered* (the
    // open-connections gauge counts reactor registrations, not kernel
    // accepts).
    let deadline = Instant::now() + Duration::from_secs(120);
    while frontend.open_connections() < idle_target + SAMPLERS && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        frontend.open_connections() >= idle_target + SAMPLERS,
        "herd never landed: {} of {} connections open",
        frontend.open_connections(),
        idle_target + SAMPLERS,
    );

    // Active work *through* the parked herd: each client pipelines a
    // tagged GEN and a SUB for the same key, then demuxes. The stream's
    // concatenated EVT payloads and the buffered GEN payload must both
    // equal the direct in-process result, byte for byte.
    let workers: Vec<_> = (0..ACTIVE)
        .map(|i| {
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut client = LineClient::connect(addr).expect("active connect");
                let gen_tag = format!("g{i}");
                let sub_tag = format!("s{i}");
                client
                    .send(&Request::Gen(
                        GenSpec::new("m", 3, 5, WireFormat::Tsv).with_tag(&gen_tag),
                    ))
                    .unwrap();
                client
                    .send(&Request::Sub(
                        GenSpec::new("m", 3, 5, WireFormat::Tsv).with_tag(&sub_tag),
                    ))
                    .unwrap();
                let mut gen_payload = None;
                let mut stream = Vec::new();
                let mut done = false;
                while !(done && gen_payload.is_some()) {
                    let reply = client.read_frame().unwrap();
                    match reply.header {
                        ReplyHeader::Gen { ref tag, .. } => {
                            assert_eq!(tag.as_deref(), Some(gen_tag.as_str()));
                            gen_payload = Some(reply.payload);
                        }
                        ReplyHeader::Sub { ref tag, .. } => assert_eq!(tag, &sub_tag),
                        ReplyHeader::Evt { ref tag, .. } => {
                            assert_eq!(tag, &sub_tag);
                            stream.extend_from_slice(&reply.payload);
                        }
                        ReplyHeader::End { ref tag, status, snapshots, .. } => {
                            assert_eq!(tag, &sub_tag);
                            assert_eq!(status, EndStatus::Ok);
                            assert_eq!(snapshots, 3);
                            done = true;
                        }
                        other => panic!("unexpected frame: {other:?}"),
                    }
                }
                assert_eq!(gen_payload.unwrap(), expected, "GEN payload diverged under load");
                assert_eq!(stream, expected, "SUB stream diverged under load");
            })
        })
        .collect();
    for w in workers {
        w.join().expect("active client panicked");
    }

    // The parked mass is still live: every sampler answers PING.
    for client in &mut samplers {
        let reply = client.request(&Request::Ping { tag: None }).unwrap();
        assert!(matches!(reply.header, ReplyHeader::Pong { .. }), "{:?}", reply.header);
    }

    // Reactor observability agrees with the herd.
    let text = handle.metrics_text();
    let open = prom_sample(&text, "vrdag_open_connections").unwrap_or(0);
    assert!(
        open as usize >= idle_target + SAMPLERS,
        "vrdag_open_connections gauge reads {open}, herd is {}",
        idle_target + SAMPLERS,
    );
    assert!(
        prom_sample(&text, "vrdag_reactor_wakeups_total").unwrap_or(0) > 0,
        "reactor wakeup counter never moved:\n{text}",
    );

    release.store(true, Ordering::Release);
    for t in openers {
        t.join().expect("opener panicked");
    }
    drop(samplers);
    drop(frontend);
    handle.shutdown();
}

/// A subscriber that stops reading mid-stream must not stall other
/// connections: with the reader parked, a sibling connection's
/// sequential GENs still complete (on the old thread-per-connection
/// frontend this held trivially; on a shared event loop it is the
/// property that keeps one slow consumer from freezing the server).
/// When the slow reader finally resumes, its stream finishes intact.
#[test]
fn stalled_subscriber_does_not_block_sibling_connections() {
    let _guard = herd_lock();
    let (handle, frontend) = serve_fixture(2, 8);
    let addr = frontend.local_addr();
    let expected_slow = direct_tsv_payload(40, 9);
    let expected_fast = direct_tsv_payload(3, 5);

    // Slow reader: subscribe to a 40-snapshot stream, read the ack and
    // two EVT frames, then go silent with the rest in flight.
    let mut slow = LineClient::connect(addr).unwrap();
    slow.send(&Request::Sub(GenSpec::new("m", 40, 9, WireFormat::Tsv).with_tag("slow"))).unwrap();
    let ack = slow.read_frame().unwrap();
    assert!(matches!(ack.header, ReplyHeader::Sub { .. }), "{:?}", ack.header);
    let mut stream = Vec::new();
    for _ in 0..2 {
        let evt = slow.read_frame().unwrap();
        assert!(matches!(evt.header, ReplyHeader::Evt { .. }), "{:?}", evt.header);
        stream.extend_from_slice(&evt.payload);
    }

    // Sibling connection: eight lock-step GENs while the slow stream is
    // stalled. If the stalled consumer froze the event loop or pinned
    // every worker, this loop would hang and time the test out.
    let mut fast = LineClient::connect(addr).unwrap();
    for _ in 0..8 {
        let reply = fast.gen(GenSpec::new("m", 3, 5, WireFormat::Tsv)).unwrap();
        assert!(matches!(reply.header, ReplyHeader::Gen { .. }), "{:?}", reply.header);
        assert_eq!(reply.payload, expected_fast);
    }

    // Resume the slow reader: the remainder of the stream arrives and
    // reassembles byte-identically.
    loop {
        let reply = slow.read_frame().unwrap();
        match reply.header {
            ReplyHeader::Evt { .. } => stream.extend_from_slice(&reply.payload),
            ReplyHeader::End { status, snapshots, .. } => {
                assert_eq!(status, EndStatus::Ok);
                assert_eq!(snapshots, 40);
                break;
            }
            other => panic!("unexpected frame: {other:?}"),
        }
    }
    assert_eq!(stream, expected_slow, "stalled stream reassembled differently");

    drop(frontend);
    handle.shutdown();
}

/// Ten thousand sequential jobs over one connection must not grow the
/// process: per-job state (in-flight table entry, completion hook,
/// outbox frame) is reclaimed as each reply drains. The thread-per-
/// waiter design this replaced allocated a stack per job and failed
/// this bound by two orders of magnitude.
#[test]
fn ten_thousand_sequential_jobs_keep_rss_bounded() {
    let _guard = herd_lock();
    let (handle, frontend) = serve_fixture(1, 4);
    let mut client = LineClient::connect(frontend.local_addr()).unwrap();
    let expected = direct_tsv_payload(3, 7);

    // Warm-up: first request generates and fills the snapshot cache;
    // everything after is a cache-hit round trip. Sample RSS only after
    // lazy allocations (thread-local model instantiation, cache entry,
    // buffer pools) have happened.
    for _ in 0..100 {
        let reply = client.gen(GenSpec::new("m", 3, 7, WireFormat::Tsv)).unwrap();
        assert!(matches!(reply.header, ReplyHeader::Gen { .. }), "{:?}", reply.header);
    }
    let before = poll_os::current_rss_bytes();

    for i in 0..10_000u32 {
        let reply = client.gen(GenSpec::new("m", 3, 7, WireFormat::Tsv)).unwrap();
        assert!(matches!(reply.header, ReplyHeader::Gen { .. }), "{:?}", reply.header);
        if i % 2_500 == 0 {
            assert_eq!(reply.payload, expected, "payload drifted at job {i}");
        }
    }

    match (before, poll_os::current_rss_bytes()) {
        (Some(b), Some(a)) => {
            let grown = a.saturating_sub(b);
            assert!(
                grown < 16 << 20,
                "RSS grew {grown} bytes over 10k jobs ({b} -> {a}): per-job state is leaking",
            );
        }
        _ => eprintln!("RSS bound skipped: /proc/self/statm unavailable"),
    }

    drop(client);
    drop(frontend);
    handle.shutdown();
}

/// Live threads of this process (`/proc/self/status`; Linux only).
fn thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| line.strip_prefix("Threads:")?.trim().parse().ok())
}

/// The router runs on the same event loop as the frontend: a parked
/// herd costs it sockets, not threads, and tagged GEN + SUB relayed
/// through the herd stay byte-identical to the direct path.
#[test]
fn router_parks_the_herd_without_a_thread_per_connection() {
    let _guard = herd_lock();
    let target = herd_size();
    if target < 512 {
        eprintln!("router c10k smoke skipped: fd budget allows only {target} connections");
        return;
    }
    let expected = direct_tsv_payload(3, 5);
    let registry = ModelRegistry::new();
    registry.register("m", &fitted_model(11)).unwrap();
    let handle = ServeHandle::with_config(
        registry,
        ServeConfig { workers: 2, cache: CacheBudget::entries(8), ..Default::default() },
    )
    .unwrap();
    // Internal mode: the router stamps trace ids on the hop.
    let frontend = Frontend::bind_with(
        handle.clone(),
        "127.0.0.1:0",
        FrontendConfig { trust_tenant_assertion: true, ..Default::default() },
    )
    .unwrap();
    let router = Router::bind(
        "127.0.0.1:0",
        vec![frontend.local_addr()],
        RouterConfig { logger: Logger::disabled(), ..Default::default() },
    )
    .unwrap();
    let addr = router.local_addr();
    let threads_before = thread_count();

    const ACTIVE: usize = 8;
    let idle_target = target - ACTIVE;
    let herd: Vec<TcpStream> =
        (0..idle_target).map(|_| TcpStream::connect(addr).expect("connect")).collect();
    let deadline = Instant::now() + Duration::from_secs(120);
    while router.open_connections() < idle_target && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        router.open_connections() >= idle_target,
        "herd never landed: {} of {idle_target} connections open",
        router.open_connections(),
    );

    let workers: Vec<_> = (0..ACTIVE)
        .map(|i| {
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut client = LineClient::connect(addr).expect("active connect");
                let (gen_tag, sub_tag) = (format!("g{i}"), format!("s{i}"));
                let spec = GenSpec::new("m", 3, 5, WireFormat::Tsv);
                client.send(&Request::Gen(spec.clone().with_tag(&gen_tag))).unwrap();
                client.send(&Request::Sub(spec.with_tag(&sub_tag))).unwrap();
                let (mut gen_payload, mut stream, mut done) = (None, Vec::new(), false);
                while !(done && gen_payload.is_some()) {
                    let reply = client.read_frame().unwrap();
                    match reply.header {
                        ReplyHeader::Gen { .. } => gen_payload = Some(reply.payload),
                        ReplyHeader::Sub { .. } => {}
                        ReplyHeader::Evt { .. } => stream.extend_from_slice(&reply.payload),
                        ReplyHeader::End { status, .. } => {
                            assert_eq!(status, EndStatus::Ok);
                            done = true;
                        }
                        other => panic!("unexpected frame: {other:?}"),
                    }
                }
                assert_eq!(gen_payload.unwrap(), expected, "routed GEN diverged under load");
                assert_eq!(stream, expected, "routed SUB diverged under load");
            })
        })
        .collect();
    for w in workers {
        w.join().expect("active client panicked");
    }

    match (threads_before, thread_count()) {
        (Some(before), Some(_)) => {
            // Backend dials run on short-lived threads; give the last
            // ones a moment to exit.
            let settle = Instant::now() + Duration::from_secs(2);
            let mut after = thread_count().unwrap_or(0);
            while after >= before + 16 && Instant::now() < settle {
                std::thread::sleep(Duration::from_millis(10));
                after = thread_count().unwrap_or(0);
            }
            assert!(
                after < before + 16,
                "{} parked connections grew the process from {before} to {after} threads",
                herd.len(),
            );
        }
        _ => eprintln!("thread bound skipped: /proc/self/status unavailable"),
    }
    drop(herd);
    drop(router);
    drop(frontend);
    handle.shutdown();
}
