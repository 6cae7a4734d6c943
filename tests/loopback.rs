//! End-to-end loopback tests of the TCP line-protocol frontend: live
//! `std::net` server, concurrent clients, bit-identical replies against
//! the direct `ServeHandle` path, deterministic coalescing of duplicate
//! keys, structured backpressure instead of dropped connections, and —
//! since the pipelined protocol — tagged out-of-order completions,
//! `SUB` snapshot streaming, `CANCEL`, and the connection/in-flight
//! caps.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use vrdag_suite::graph::io::BinaryStreamWriter;
use vrdag_suite::prelude::*;
use vrdag_suite::serve::protocol::{
    EndStatus, ErrorCode, GenSpec, ReplyHeader, Request, StreamOutcome, TagDemux, WireFormat,
};
use vrdag_suite::serve::FrontendConfig;

fn fitted_model(seed: u64) -> Vrdag {
    let g = datasets::generate(&datasets::tiny(), seed);
    let mut cfg = VrdagConfig::test_small();
    cfg.epochs = 2;
    let mut model = Vrdag::new(cfg);
    let mut rng = StdRng::seed_from_u64(seed);
    model.fit(&g, &mut rng).unwrap();
    model
}

/// Serialize exactly as the frontend does for each wire format.
fn encode(graph: &DynamicGraph, fmt: WireFormat) -> Vec<u8> {
    match fmt {
        WireFormat::Tsv => vrdag_suite::graph::io::write_tsv(graph, Vec::new()).unwrap(),
        WireFormat::Bin => {
            let mut w = BinaryStreamWriter::new(
                Vec::new(),
                graph.n_nodes(),
                graph.n_attrs(),
                graph.t_len(),
            )
            .unwrap();
            for (_, s) in graph.iter() {
                w.write_snapshot(s).unwrap();
            }
            w.finish().unwrap()
        }
    }
}

/// Generate `(t_len, seed)` through a direct `ServeHandle` and encode it
/// as the ground truth for a wire reply.
fn direct_payload(registry: &ModelRegistry, t_len: usize, seed: u64, fmt: WireFormat) -> Vec<u8> {
    let direct = ServeHandle::new(registry.clone(), 1).unwrap();
    let ticket = direct.submit(GenRequest::new("m", t_len, seed, GenSink::InMemory)).unwrap();
    let result = ticket.wait().unwrap();
    assert!(result.is_ok(), "{:?}", result.error);
    let payload = encode(result.graph.as_deref().unwrap(), fmt);
    direct.shutdown();
    payload
}

#[test]
fn concurrent_clients_get_bit_identical_replies_and_duplicates_coalesce() {
    let model = fitted_model(11);
    let registry = ModelRegistry::new();
    registry.register("m", &model).unwrap();

    // Ground truth through a *separate* direct ServeHandle core (same
    // artifact, untouched stats), so the frontend core's cache counters
    // below are exactly the TCP traffic's.
    let direct = ServeHandle::new(registry.clone(), 2).unwrap();
    let keys: Vec<(usize, u64)> = vec![(3, 1), (3, 2), (4, 1)];
    let mut expected: HashMap<(usize, u64, bool), Vec<u8>> = HashMap::new();
    for &(t_len, seed) in &keys {
        let ticket = direct.submit(GenRequest::new("m", t_len, seed, GenSink::InMemory)).unwrap();
        let result = ticket.wait().unwrap();
        assert!(result.is_ok(), "{:?}", result.error);
        let graph = result.graph.as_deref().unwrap();
        expected.insert((t_len, seed, false), encode(graph, WireFormat::Tsv));
        expected.insert((t_len, seed, true), encode(graph, WireFormat::Bin));
    }
    direct.shutdown();

    let handle = ServeHandle::with_config(
        registry,
        ServeConfig { workers: 2, cache: CacheBudget::entries(32), ..Default::default() },
    )
    .unwrap();
    let frontend = Frontend::bind(handle.clone(), "127.0.0.1:0").unwrap();
    let addr = frontend.local_addr();
    // A run that forces a readiness backend through `VRDAG_POLLER` must
    // really be served by it: a broken override would otherwise pass
    // silently on the platform default.
    if let Ok(forced) = std::env::var("VRDAG_POLLER") {
        if forced != "auto" {
            assert_eq!(frontend.poller(), forced, "VRDAG_POLLER override not honoured");
        }
    }

    // 4 concurrent clients all request every key — overlapping
    // (model, t, seed) traffic, half tsv, half bin (the format changes
    // the encoding, not the cache key).
    let clients: Vec<_> = (0..4usize)
        .map(|client| {
            let keys = keys.clone();
            std::thread::spawn(move || {
                let fmt = if client % 2 == 0 { WireFormat::Tsv } else { WireFormat::Bin };
                let mut conn = LineClient::connect(addr).unwrap();
                let mut replies = Vec::new();
                for (t_len, seed) in keys {
                    let reply = conn.gen(GenSpec::new("m", t_len, seed, fmt)).unwrap();
                    match reply.header {
                        ReplyHeader::Gen {
                            t_len: rt, seed: rs, fmt: rf, snapshots, bytes, ..
                        } => {
                            assert_eq!((rt, rs, rf), (t_len, seed, fmt), "reply routed wrong");
                            assert_eq!(snapshots, t_len);
                            assert_eq!(bytes, reply.payload.len());
                        }
                        other => panic!("expected OK GEN, got {other:?}"),
                    }
                    replies.push((t_len, seed, fmt == WireFormat::Bin, reply.payload));
                }
                let bye = conn.request(&Request::Quit { tag: None }).unwrap();
                assert!(matches!(bye.header, ReplyHeader::Bye { .. }));
                replies
            })
        })
        .collect();
    for client in clients {
        for (t_len, seed, bin, payload) in client.join().unwrap() {
            assert_eq!(
                &payload,
                expected.get(&(t_len, seed, bin)).unwrap(),
                "reply for t={t_len} seed={seed} bin={bin} diverged from the direct path"
            );
        }
    }

    // Duplicates coalesced: 4 clients x 3 keys = 12 lookups, exactly one
    // miss per unique (model, t, seed) key, everything else served from
    // the cache.
    let stats = handle.stats();
    assert_eq!(stats.completed, 12);
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.cache.misses, keys.len() as u64, "{stats:?}");
    assert_eq!(stats.cache.hits, 12 - keys.len() as u64, "{stats:?}");
    assert_eq!(stats.cache.evictions, 0);
}

#[test]
fn pipelined_tagged_gens_complete_out_of_order_and_demux_by_tag() {
    let model = fitted_model(21);
    let registry = ModelRegistry::new();
    registry.register("m", &model).unwrap();

    // One long job and four short ones, mixed formats. Cache disabled so
    // every job really generates — the long one must occupy a worker
    // while the short ones overtake it.
    let jobs: Vec<(&str, usize, u64, WireFormat)> = vec![
        ("big", 80, 1, WireFormat::Tsv),
        ("s1", 1, 2, WireFormat::Tsv),
        ("s2", 1, 3, WireFormat::Bin),
        ("s3", 2, 4, WireFormat::Tsv),
        ("s4", 1, 5, WireFormat::Bin),
    ];
    let expected: HashMap<&str, Vec<u8>> = jobs
        .iter()
        .map(|&(tag, t_len, seed, fmt)| (tag, direct_payload(&registry, t_len, seed, fmt)))
        .collect();

    let handle = ServeHandle::new(registry, 2).unwrap();
    let frontend = Frontend::bind(handle.clone(), "127.0.0.1:0").unwrap();
    let mut conn = LineClient::connect(frontend.local_addr()).unwrap();

    // Fire the whole pipeline without reading a single reply: the big
    // job first, so in-order delivery would have to stall the others.
    for &(tag, t_len, seed, fmt) in &jobs {
        conn.send(&Request::Gen(GenSpec::new("m", t_len, seed, fmt).with_tag(tag))).unwrap();
    }

    let mut demux = TagDemux::new();
    let mut arrival: Vec<String> = Vec::new();
    while arrival.len() < jobs.len() {
        let reply = conn.read_frame().unwrap();
        match &reply.header {
            ReplyHeader::Gen { tag: Some(tag), bytes, .. } => {
                assert_eq!(*bytes, reply.payload.len());
                arrival.push(tag.clone());
                demux.feed(&reply.header, &reply.payload).unwrap();
            }
            other => panic!("expected a tagged OK GEN, got {other:?}"),
        }
    }

    // Every tagged reply is bit-identical to the direct path.
    for &(tag, ..) in &jobs {
        let stream = demux.get(tag).unwrap();
        assert_eq!(stream.outcome, Some(StreamOutcome::Reply), "{tag}");
        assert_eq!(&stream.payload, expected.get(tag).unwrap(), "tag {tag} payload diverged");
    }
    // Pipelining proof: the first-submitted (slow) job did NOT arrive
    // first — at least one later, shorter job overtook it.
    assert_ne!(arrival[0], "big", "no out-of-submission-order completion: {arrival:?}");
    assert_eq!(arrival.last().map(String::as_str), Some("big"), "{arrival:?}");

    // The connection is still usable lock-step afterwards.
    let pong = conn.request(&Request::Ping { tag: None }).unwrap();
    assert!(matches!(pong.header, ReplyHeader::Pong { tag: None }));
}

#[test]
fn sub_streams_equal_buffered_gen_payloads() {
    let model = fitted_model(22);
    let registry = ModelRegistry::new();
    registry.register("m", &model).unwrap();
    // Cache enabled: the GEN populates it, so the SUB exercises the
    // cache-hit *replay* path — which must stream the exact same frames
    // as cold generation.
    let handle = ServeHandle::with_config(
        registry,
        ServeConfig { workers: 1, cache: CacheBudget::entries(8), ..Default::default() },
    )
    .unwrap();
    let frontend = Frontend::bind(handle.clone(), "127.0.0.1:0").unwrap();

    for (fmt, t_len, seed) in [(WireFormat::Tsv, 6, 7u64), (WireFormat::Bin, 5, 9u64)] {
        let mut conn = LineClient::connect(frontend.local_addr()).unwrap();
        let buffered = conn.gen(GenSpec::new("m", t_len, seed, fmt)).unwrap();
        let expected_payload = match &buffered.header {
            ReplyHeader::Gen { snapshots, .. } => {
                assert_eq!(*snapshots, t_len);
                buffered.payload.clone()
            }
            other => panic!("expected OK GEN, got {other:?}"),
        };

        conn.send(&Request::Sub(GenSpec::new("m", t_len, seed, fmt).with_tag("st"))).unwrap();
        let mut demux = TagDemux::new();
        let mut evt_frames = 0usize;
        loop {
            let reply = conn.read_frame().unwrap();
            match &reply.header {
                ReplyHeader::Sub { tag, t_len: acked, .. } => {
                    assert_eq!(tag, "st");
                    assert_eq!(*acked, t_len);
                    demux.feed(&reply.header, &reply.payload).unwrap();
                }
                ReplyHeader::Evt { snap, of, bytes, .. } => {
                    assert_eq!(*of, t_len);
                    assert_eq!(*snap, evt_frames, "frames arrive in snapshot order");
                    assert_eq!(*bytes, reply.payload.len());
                    evt_frames += 1;
                    demux.feed(&reply.header, &reply.payload).unwrap();
                }
                ReplyHeader::End { .. } => {
                    demux.feed(&reply.header, &reply.payload).unwrap();
                    break;
                }
                other => panic!("unexpected frame {other:?}"),
            }
        }
        // Exactly t EVT frames whose concatenation equals the buffered
        // GEN payload, terminated by a clean END.
        assert_eq!(evt_frames, t_len);
        let stream = demux.take("st").unwrap();
        assert_eq!(stream.outcome, Some(StreamOutcome::Complete));
        assert_eq!(stream.frames, t_len);
        assert_eq!(stream.payload, expected_payload, "fmt {fmt}: stream != buffered payload");
    }
    // Both SUBs were served from the cache (the GENs generated).
    let stats = handle.stats();
    assert_eq!(stats.cache.misses, 2, "{stats:?}");
    assert!(stats.cache.hits >= 2, "{stats:?}");
}

#[test]
fn parallel_sub_streams_equal_buffered_gen_and_report_consistent_stage_timings() {
    let model = fitted_model(28);
    let registry = ModelRegistry::new();
    registry.register("m", &model).unwrap();
    // Intra-job parallelism explicitly on (the clamp may still reduce it
    // on a small host — determinism must hold either way): the SUB below
    // is a *cold* decode streamed snapshot by snapshot, and the GEN after
    // it replays the now-cached value buffered. Both byte
    // paths must agree exactly.
    let handle = ServeHandle::with_config(
        registry,
        ServeConfig {
            workers: 1,
            cache: CacheBudget::entries(8),
            intra_threads: Some(4),
            ..Default::default()
        },
    )
    .unwrap();
    assert!(handle.intra_threads() >= 1);
    let frontend = Frontend::bind(handle.clone(), "127.0.0.1:0").unwrap();

    for (fmt, t_len, seed) in [(WireFormat::Tsv, 6, 7u64), (WireFormat::Bin, 5, 9u64)] {
        let mut conn = LineClient::connect(frontend.local_addr()).unwrap();
        conn.send(&Request::Sub(GenSpec::new("m", t_len, seed, fmt).with_tag("pp"))).unwrap();
        let mut demux = TagDemux::new();
        let mut evt_frames = 0usize;
        let (qms, genms) = loop {
            let reply = conn.read_frame().unwrap();
            match &reply.header {
                ReplyHeader::Sub { tag, .. } => {
                    assert_eq!(tag, "pp");
                    demux.feed(&reply.header, &reply.payload).unwrap();
                }
                ReplyHeader::Evt { snap, bytes, .. } => {
                    assert_eq!(*snap, evt_frames, "frames arrive in snapshot order");
                    assert_eq!(*bytes, reply.payload.len());
                    evt_frames += 1;
                    demux.feed(&reply.header, &reply.payload).unwrap();
                }
                ReplyHeader::End { tag, status, snapshots, qms, genms, .. } => {
                    assert_eq!(tag, "pp");
                    assert_eq!(*status, EndStatus::Ok);
                    assert_eq!(*snapshots, t_len);
                    demux.feed(&reply.header, &reply.payload).unwrap();
                    break (*qms, *genms);
                }
                other => panic!("unexpected frame {other:?}"),
            }
        };
        // Stage timings survive intra-job parallelism: END still reports
        // queue wait and generation time for the cold parallel job.
        assert!(qms.is_some(), "fmt {fmt}: END lost qms= under intra-job parallelism");
        assert!(genms.is_some(), "fmt {fmt}: END lost genms= under intra-job parallelism");
        assert_eq!(evt_frames, t_len);
        let stream = demux.take("pp").unwrap();
        assert_eq!(stream.outcome, Some(StreamOutcome::Complete));
        assert_eq!(stream.frames, t_len);

        let buffered = conn.gen(GenSpec::new("m", t_len, seed, fmt)).unwrap();
        match &buffered.header {
            ReplyHeader::Gen { snapshots, .. } => assert_eq!(*snapshots, t_len),
            other => panic!("expected OK GEN, got {other:?}"),
        }
        assert_eq!(
            stream.payload, buffered.payload,
            "fmt {fmt}: parallel SUB stream != buffered GEN payload"
        );
    }

    // The cold SUBs generated, the GENs replayed from the cache; the
    // per-stage aggregates stay internally consistent (a job's first
    // snapshot can never land after its last).
    let stats = handle.stats();
    assert_eq!(stats.cache.misses, 2, "{stats:?}");
    assert!(stats.cache.hits >= 2, "{stats:?}");
    assert!(
        stats.stages.first_snapshot.max_seconds <= stats.stages.generation.max_seconds + 1e-9,
        "{:?}",
        stats.stages
    );
}

#[test]
fn cancel_mid_stream_ends_the_subscription_and_keeps_the_connection() {
    let model = fitted_model(23);
    let registry = ModelRegistry::new();
    registry.register("m", &model).unwrap();
    let handle = ServeHandle::new(registry, 1).unwrap();
    let frontend = Frontend::bind(handle.clone(), "127.0.0.1:0").unwrap();
    let mut conn = LineClient::connect(frontend.local_addr()).unwrap();

    // CANCEL of a tag that is not in flight: found=false, nothing else.
    let miss = conn.request(&Request::Cancel { tag: "ghost".to_string() }).unwrap();
    assert!(matches!(miss.header, ReplyHeader::Cancel { found: false, .. }));

    // A long subscription, cancelled after two delivered snapshots.
    let total = 400usize;
    conn.send(&Request::Sub(GenSpec::new("m", total, 0, WireFormat::Tsv).with_tag("long")))
        .unwrap();
    let ack = conn.read_frame().unwrap();
    assert!(matches!(ack.header, ReplyHeader::Sub { .. }), "{:?}", ack.header);
    let mut seen = 0usize;
    while seen < 2 {
        let reply = conn.read_frame().unwrap();
        match reply.header {
            ReplyHeader::Evt { snap, .. } => {
                assert_eq!(snap, seen);
                seen += 1;
            }
            other => panic!("expected EVT, got {other:?}"),
        }
    }
    conn.send(&Request::Cancel { tag: "long".to_string() }).unwrap();
    // In-flight EVT frames may still arrive before the CANCEL lands;
    // consume until the stream terminates.
    let mut cancel_acked = false;
    let (snapshots, status) = loop {
        let reply = conn.read_frame().unwrap();
        match reply.header {
            ReplyHeader::Evt { snap, .. } => {
                assert_eq!(snap, seen);
                seen += 1;
            }
            ReplyHeader::Cancel { tag, found } => {
                assert_eq!(tag, "long");
                assert!(found, "the subscription was in flight");
                cancel_acked = true;
            }
            ReplyHeader::End { tag, snapshots, status, .. } => {
                assert_eq!(tag, "long");
                break (snapshots, status);
            }
            other => panic!("unexpected frame {other:?}"),
        }
    };
    assert!(cancel_acked);
    assert_eq!(status, EndStatus::Cancelled);
    assert_eq!(snapshots, seen, "END reports the frames actually delivered");
    assert!(snapshots < total, "cancellation really stopped the stream early");

    // The connection survived and serves lock-step work again.
    let pong = conn.request(&Request::Ping { tag: None }).unwrap();
    assert!(matches!(pong.header, ReplyHeader::Pong { .. }));
    let reply = conn.gen(GenSpec::new("m", 2, 1, WireFormat::Tsv)).unwrap();
    assert!(matches!(reply.header, ReplyHeader::Gen { .. }));
    // The cancelled job is visible in the stats and not counted failed.
    let stats = handle.stats();
    assert_eq!(stats.cancelled, 1, "{stats:?}");
    assert_eq!(stats.failed, 0, "{stats:?}");
}

#[test]
fn inflight_cap_and_duplicate_tags_answer_structured_errors() {
    let model = fitted_model(24);
    let registry = ModelRegistry::new();
    registry.register("m", &model).unwrap();
    let handle = ServeHandle::new(registry, 1).unwrap();
    let frontend = Frontend::bind_with(
        handle.clone(),
        "127.0.0.1:0",
        FrontendConfig { max_inflight_per_conn: 1, ..Default::default() },
    )
    .unwrap();

    // Pin the single worker via the shared handle so the wire job below
    // stays in flight deterministically.
    let (started_tx, started_rx) = std::sync::mpsc::channel();
    let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
    let mut fired = false;
    let blocker = handle
        .submit(GenRequest::new(
            "m",
            1,
            0,
            GenSink::Callback(Box::new(move |_, _| {
                if !fired {
                    fired = true;
                    started_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                }
            })),
        ))
        .unwrap();
    started_rx.recv().unwrap();

    let mut conn = LineClient::connect(frontend.local_addr()).unwrap();
    conn.send(&Request::Gen(GenSpec::new("m", 1, 1, WireFormat::Tsv).with_tag("a"))).unwrap();
    // Same tag again: rejected as a duplicate while `a` is in flight.
    let dup = conn
        .request(&Request::Gen(GenSpec::new("m", 1, 2, WireFormat::Tsv).with_tag("a")))
        .unwrap();
    match dup.header {
        ReplyHeader::Err { code, tag, .. } => {
            assert_eq!(code, ErrorCode::DuplicateTag);
            assert_eq!(tag.as_deref(), Some("a"));
        }
        other => panic!("expected ERR duplicate-tag, got {other:?}"),
    }
    // A different tag: over the per-connection in-flight cap.
    let over = conn
        .request(&Request::Gen(GenSpec::new("m", 1, 3, WireFormat::Tsv).with_tag("b")))
        .unwrap();
    match over.header {
        ReplyHeader::Err { code, tag, message } => {
            assert_eq!(code, ErrorCode::TooManyInflight);
            assert_eq!(tag.as_deref(), Some("b"));
            assert!(message.contains("cap=1"), "{message}");
        }
        other => panic!("expected ERR too-many-inflight, got {other:?}"),
    }
    // Unpin; tag `a` resolves and frees the slot for new work.
    release_tx.send(()).unwrap();
    blocker.wait().unwrap();
    let reply = conn.read_frame().unwrap();
    match reply.header {
        ReplyHeader::Gen { tag, .. } => assert_eq!(tag.as_deref(), Some("a")),
        other => panic!("expected OK GEN tag=a, got {other:?}"),
    }
    let retry = conn
        .request(&Request::Gen(GenSpec::new("m", 1, 3, WireFormat::Tsv).with_tag("b")))
        .unwrap();
    assert!(matches!(retry.header, ReplyHeader::Gen { .. }), "{:?}", retry.header);
}

#[test]
fn connection_cap_greets_with_structured_error_and_recovers() {
    let model = fitted_model(25);
    let registry = ModelRegistry::new();
    registry.register("m", &model).unwrap();
    let handle = ServeHandle::new(registry, 1).unwrap();
    let frontend = Frontend::bind_with(
        handle.clone(),
        "127.0.0.1:0",
        FrontendConfig { max_connections: Some(1), ..Default::default() },
    )
    .unwrap();
    let addr = frontend.local_addr();

    let mut first = LineClient::connect(addr).unwrap();
    // The PING round trip proves the handler is registered in the
    // accept loop's table before the second connect below.
    assert!(matches!(
        first.request(&Request::Ping { tag: None }).unwrap().header,
        ReplyHeader::Pong { .. }
    ));

    // Over the cap: a structured greeting, then close.
    let mut second = LineClient::connect(addr).unwrap();
    let greeting = second.read_frame().unwrap();
    match greeting.header {
        ReplyHeader::Err { code, message, .. } => {
            assert_eq!(code, ErrorCode::TooManyConnections);
            assert!(message.contains("cap=1"), "{message}");
        }
        other => panic!("expected ERR too-many-connections, got {other:?}"),
    }
    assert!(second.read_frame().is_err(), "rejected connection must be closed");

    // Close the first connection; the accept loop reaps it and serves
    // new clients again.
    assert!(matches!(
        first.request(&Request::Quit { tag: None }).unwrap().header,
        ReplyHeader::Bye { .. }
    ));
    drop(first);
    let mut recovered = None;
    for _ in 0..500 {
        let mut conn = match LineClient::connect(addr) {
            Ok(conn) => conn,
            Err(_) => continue,
        };
        match conn.request(&Request::Ping { tag: None }) {
            Ok(reply) if matches!(reply.header, ReplyHeader::Pong { .. }) => {
                recovered = Some(conn);
                break;
            }
            _ => std::thread::sleep(std::time::Duration::from_millis(5)),
        }
    }
    assert!(recovered.is_some(), "frontend never recovered below the connection cap");
}

#[test]
fn saturated_queue_answers_structured_backpressure_and_keeps_the_connection() {
    let model = fitted_model(12);
    let registry = ModelRegistry::new();
    registry.register("m", &model).unwrap();
    let handle = ServeHandle::with_config(
        registry,
        ServeConfig { workers: 1, max_queue_depth: Some(1), ..Default::default() },
    )
    .unwrap();
    let frontend = Frontend::bind(handle.clone(), "127.0.0.1:0").unwrap();

    // Pin the single worker inside a job via the shared handle, then
    // fill the queue to its cap, so the TCP submit below must be
    // rejected deterministically.
    let (started_tx, started_rx) = std::sync::mpsc::channel();
    let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
    let mut fired = false;
    let blocker = handle
        .submit(GenRequest::new(
            "m",
            1,
            0,
            GenSink::Callback(Box::new(move |_, _| {
                if !fired {
                    fired = true;
                    started_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                }
            })),
        ))
        .unwrap();
    started_rx.recv().unwrap();
    let filler = handle.submit(GenRequest::new("m", 1, 1, GenSink::Discard)).unwrap();

    let mut conn = LineClient::connect(frontend.local_addr()).unwrap();
    let spec = GenSpec::new("m", 2, 9, WireFormat::Tsv);
    let rejected = conn.gen(spec.clone()).unwrap();
    match rejected.header {
        ReplyHeader::Err { code, message, .. } => {
            assert_eq!(code, ErrorCode::QueueFull);
            assert_eq!(message, "depth=1 cap=1", "structured backpressure fields");
        }
        other => panic!("expected ERR queue-full, got {other:?}"),
    }
    // The connection survived the rejection: it still answers.
    let pong = conn.request(&Request::Ping { tag: None }).unwrap();
    assert!(matches!(pong.header, ReplyHeader::Pong { .. }));

    // Unpin the worker; once the backlog drains, the same connection's
    // retry succeeds — the client-side backoff loop the ERR asks for.
    release_tx.send(()).unwrap();
    blocker.wait().unwrap();
    filler.wait().unwrap();
    let mut reply = None;
    for _ in 0..2000 {
        let r = conn.gen(spec.clone()).unwrap();
        match r.header {
            ReplyHeader::Err { code: ErrorCode::QueueFull, .. } => {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            _ => {
                reply = Some(r);
                break;
            }
        }
    }
    let reply = reply.expect("retry after backpressure never succeeded");
    match reply.header {
        ReplyHeader::Gen { seed, snapshots, .. } => {
            assert_eq!(seed, 9);
            assert_eq!(snapshots, 2);
            assert!(!reply.payload.is_empty());
        }
        other => panic!("expected OK GEN after drain, got {other:?}"),
    }
}

#[test]
fn malformed_lines_get_typed_errors_without_losing_the_connection() {
    let model = fitted_model(13);
    let registry = ModelRegistry::new();
    registry.register("m", &model).unwrap();
    let handle = ServeHandle::new(registry, 1).unwrap();
    let frontend = Frontend::bind(handle.clone(), "127.0.0.1:0").unwrap();
    let mut conn = LineClient::connect(frontend.local_addr()).unwrap();

    let err_code = |reply: vrdag_suite::serve::Reply| match reply.header {
        ReplyHeader::Err { code, .. } => code,
        other => panic!("expected ERR, got {other:?}"),
    };

    // One connection, a parade of bad input — each answered, none fatal.
    assert_eq!(err_code(conn.send_line("FROBNICATE now").unwrap()), ErrorCode::BadRequest);
    assert_eq!(
        err_code(conn.send_line("GEN model=m t=zero seed=0 fmt=tsv").unwrap()),
        ErrorCode::BadRequest
    );
    assert_eq!(
        err_code(conn.send_line("GEN model=m t=0 seed=0 fmt=tsv").unwrap()),
        ErrorCode::BadRequest
    );
    assert_eq!(
        err_code(conn.send_line("SUB model=m t=1 seed=0 fmt=tsv tag=bad tag").unwrap()),
        ErrorCode::BadRequest
    );
    assert_eq!(
        err_code(conn.send_line("GEN model=m t=1 seed=0 fmt=tsv tag=sp%ce").unwrap()),
        ErrorCode::BadRequest
    );
    assert_eq!(err_code(conn.send_line("CANCEL").unwrap()), ErrorCode::BadRequest);
    assert_eq!(
        err_code(conn.send_line("GEN model=ghost t=1 seed=0 fmt=tsv").unwrap()),
        ErrorCode::UnknownModel
    );
    let oversized = format!("GEN model={} t=1 seed=0 fmt=tsv", "x".repeat(8192));
    assert_eq!(err_code(conn.send_line(&oversized).unwrap()), ErrorCode::LineTooLong);
    // After all of that, the connection still serves real work.
    let reply = conn.gen(GenSpec::new("m", 1, 0, WireFormat::Tsv)).unwrap();
    assert!(matches!(reply.header, ReplyHeader::Gen { .. }));
    assert!(matches!(
        conn.request(&Request::Stats { tag: None }).unwrap().header,
        ReplyHeader::Stats { .. }
    ));
}

#[test]
fn abrupt_disconnect_cancels_untagged_inflight_jobs() {
    let model = fitted_model(26);
    let registry = ModelRegistry::new();
    registry.register("m", &model).unwrap();
    let handle = ServeHandle::new(registry, 1).unwrap();
    let frontend = Frontend::bind(handle.clone(), "127.0.0.1:0").unwrap();
    {
        let mut conn = LineClient::connect(frontend.local_addr()).unwrap();
        // Untagged (legacy-style) long job, then vanish without QUIT.
        conn.send(&Request::Gen(GenSpec::new("m", 50_000, 3, WireFormat::Bin))).unwrap();
        // Give the reader time to dispatch it onto the single worker.
        std::thread::sleep(std::time::Duration::from_millis(300));
    } // drop = abrupt close
      // The teardown must trip the job's token: the worker frees up long
      // before 50k snapshots could possibly generate.
    let mut cancelled = false;
    for _ in 0..400 {
        if handle.stats().cancelled == 1 {
            cancelled = true;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    assert!(cancelled, "disconnect never cancelled the untagged job: {:?}", handle.stats());
}

/// Extract one sample value from Prometheus exposition text. `series`
/// must be the full series name (labels included for labeled series);
/// the ` ` separator after it keeps `foo` from matching `foo_peak`.
fn prom_sample(text: &str, series: &str) -> Option<u64> {
    text.lines().find_map(|line| line.strip_prefix(series)?.strip_prefix(' ')?.parse().ok())
}

#[test]
fn metrics_exposition_agrees_exactly_with_stats_after_deterministic_workload() {
    let model = fitted_model(27);
    let registry = ModelRegistry::new();
    registry.register("m", &model).unwrap();
    let handle = ServeHandle::with_config(
        registry,
        ServeConfig { workers: 2, cache: CacheBudget::entries(16), ..Default::default() },
    )
    .unwrap();
    let frontend = Frontend::bind(handle.clone(), "127.0.0.1:0").unwrap();
    let mut conn = LineClient::connect(frontend.local_addr()).unwrap();

    // Deterministic sequential workload: 2 unique keys x 3 requests each
    // → 6 completions, exactly 2 cache misses and 4 hits.
    for _ in 0..3 {
        for seed in [1u64, 2] {
            let reply = conn.gen(GenSpec::new("m", 3, seed, WireFormat::Tsv)).unwrap();
            assert!(matches!(reply.header, ReplyHeader::Gen { .. }), "{:?}", reply.header);
        }
    }
    // One SUB on a cached key: 3 EVT frames, and the END frame must
    // carry the job's queue-wait / generation stage timings.
    conn.send(&Request::Sub(GenSpec::new("m", 3, 1, WireFormat::Tsv).with_tag("mt"))).unwrap();
    let mut evt_frames = 0usize;
    loop {
        let reply = conn.read_frame().unwrap();
        match reply.header {
            ReplyHeader::Sub { .. } => {}
            ReplyHeader::Evt { .. } => evt_frames += 1,
            ReplyHeader::End { tag, status, qms, genms, .. } => {
                assert_eq!(tag, "mt");
                assert_eq!(status, EndStatus::Ok);
                assert!(qms.is_some(), "END must report queue wait");
                assert!(genms.is_some(), "END must report generation time");
                break;
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }
    assert_eq!(evt_frames, 3);

    // METRICS over the wire: a length-prefixed Prometheus text payload.
    let reply = conn.request(&Request::Metrics { tag: Some("mx".to_string()) }).unwrap();
    let text = match reply.header {
        ReplyHeader::Metrics { tag, bytes } => {
            assert_eq!(tag.as_deref(), Some("mx"));
            assert_eq!(bytes, reply.payload.len());
            String::from_utf8(reply.payload).unwrap()
        }
        other => panic!("expected OK METRICS, got {other:?}"),
    };
    assert!(text.starts_with("# TYPE "), "exposition must lead with a TYPE line: {text}");

    // Every job/cache counter agrees *exactly* with the STATS snapshot —
    // both read the same live registry handles.
    let stats = handle.stats();
    let expect = [
        ("vrdag_jobs_submitted_total", stats.submitted),
        ("vrdag_jobs_completed_total", stats.completed),
        ("vrdag_jobs_failed_total", stats.failed),
        ("vrdag_jobs_cancelled_total", stats.cancelled),
        ("vrdag_jobs_dropped_total", stats.dropped_jobs),
        ("vrdag_snapshots_total", stats.snapshots),
        ("vrdag_edges_total", stats.edges),
        ("vrdag_decode_pairs_total", stats.decode.pairs),
        ("vrdag_decode_scored_pairs_total", stats.decode.scored),
        ("vrdag_cache_hits_total", stats.cache.hits),
        ("vrdag_cache_misses_total", stats.cache.misses),
        ("vrdag_cache_insertions_total", stats.cache.insertions),
        ("vrdag_cache_evictions_total", stats.cache.evictions),
        ("vrdag_cache_evicted_bytes_total", stats.cache.evicted_bytes),
        ("vrdag_cache_entries", stats.cache.entries as u64),
        ("vrdag_cache_bytes", stats.cache.bytes as u64),
        ("vrdag_queue_depth", stats.queue_depth as u64),
        ("vrdag_jobs_inflight", stats.in_flight as u64),
        ("vrdag_jobs_inflight_peak", stats.max_in_flight as u64),
    ];
    for (series, want) in expect {
        assert_eq!(prom_sample(&text, series), Some(want), "{series} diverged\n{text}");
    }
    // And the workload's known shape pins the key counters absolutely.
    assert_eq!(stats.completed, 7);
    assert_eq!(stats.cache.misses, 2, "{stats:?}");
    assert_eq!(stats.cache.hits, 5, "{stats:?}");
    assert!(stats.decode.pairs > 0 && stats.decode.scored <= stats.decode.pairs, "{stats:?}");
    assert_eq!(prom_sample(&text, "vrdag_evt_frames_total"), Some(3));
    assert_eq!(prom_sample(&text, "vrdag_connections_total{outcome=\"accepted\"}"), Some(1));
    // Natively-instrumented stage histograms saw every completed job.
    assert_eq!(
        prom_sample(&text, "vrdag_job_stage_seconds_count{stage=\"queue_wait\"}"),
        Some(stats.completed),
        "{text}"
    );
    // Latency has one store too: every STATS latency view reads one of
    // these histograms, so the sample counts agree exactly.
    assert_eq!(
        prom_sample(&text, "vrdag_job_seconds_count"),
        Some(stats.latency.samples),
        "{text}"
    );
    let stages = &stats.stages;
    for (stage, latency) in [
        ("queue_wait", &stages.queue_wait),
        ("first_snapshot", &stages.first_snapshot),
        ("generation", &stages.generation),
        ("delivery", &stages.delivery),
    ] {
        let series = format!("vrdag_job_stage_seconds_count{{stage=\"{stage}\"}}");
        assert_eq!(prom_sample(&text, &series), Some(latency.samples), "{series}\n{text}");
    }
    let anonymous = stats.tenants.iter().find(|t| t.id == "anonymous").expect("anonymous row");
    assert_eq!(
        prom_sample(&text, "vrdag_tenant_job_seconds_count{tenant=\"anonymous\"}"),
        Some(anonymous.completed),
        "{text}"
    );

    // STATS over the same connection reflects the identical counters in
    // its human rendering.
    let reply = conn.request(&Request::Stats { tag: None }).unwrap();
    let rendered = match reply.header {
        ReplyHeader::Stats { bytes, .. } => {
            assert_eq!(bytes, reply.payload.len());
            String::from_utf8(reply.payload).unwrap()
        }
        other => panic!("expected OK STATS, got {other:?}"),
    };
    assert!(
        rendered
            .contains(&format!("{} submitted / {} completed", stats.submitted, stats.completed)),
        "{rendered}"
    );
    assert!(rendered.contains("jobs_inflight="), "gauges line missing: {rendered}");
}

#[test]
fn frontend_shutdown_leaves_the_core_usable() {
    let model = fitted_model(14);
    let registry = ModelRegistry::new();
    registry.register("m", &model).unwrap();
    let handle = ServeHandle::new(registry, 1).unwrap();
    let mut frontend = Frontend::bind(handle.clone(), "127.0.0.1:0").unwrap();
    let addr = frontend.local_addr();
    {
        let mut conn = LineClient::connect(addr).unwrap();
        assert!(matches!(
            conn.request(&Request::Ping { tag: None }).unwrap().header,
            ReplyHeader::Pong { .. }
        ));
    }
    frontend.shutdown();
    // The listener is gone (the OS may still accept a connect into the
    // dead backlog, but nothing answers on it).
    match LineClient::connect(addr) {
        Err(_) => {}
        Ok(mut conn) => assert!(
            conn.request(&Request::Ping { tag: None }).is_err(),
            "frontend still serving after shutdown"
        ),
    }
    // ...but the core keeps serving direct traffic.
    let ticket = handle.submit(GenRequest::new("m", 1, 5, GenSink::InMemory)).unwrap();
    assert!(ticket.wait().unwrap().is_ok());
}
