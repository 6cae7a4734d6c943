//! Layer probes for the traced run: each times calls into one crate's
//! public functions at the workload's own model shape, from outside the
//! program, after the measured window has ended.

use crate::client::ping_rtts;
use crate::fleet::{Fleet, MODEL};
use crate::mix::{Plan, Stream};
use crate::report::{Metric, Unit};
use crate::stats::{median, tail_percentile};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::{Duration, Instant};
use vrdag::decoder::MixBernoulliDecoder;
use vrdag::Vrdag;
use vrdag_graph::io::{encode_binary, write_tsv, BinaryStreamWriter, TsvStreamWriter};
use vrdag_graph::{DynamicGraph, Snapshot};
use vrdag_serve::backend::BackendPool;
use vrdag_serve::protocol::WireFormat;
use vrdag_serve::{GenRequest, GenSink, MetricsRegistry, RouterConfig};
use vrdag_tensor::{par, Matrix};

const PROBE_SEED: u64 = 0x009B_0BE5;
/// Snapshots stepped per thread count by the generation probe.
const STEPS: usize = 16;
/// Repeats of the short one-shot timings (instantiate, begin, decode).
const REPEATS: usize = 9;
/// Minimum time each throughput loop (matmul, encode) runs for.
const MIN_LOOP: Duration = Duration::from_millis(150);
const PINGS: usize = 10_000;
/// In-process requests: up to this many per class, within this budget.
const INPROC_PER_CLASS: usize = 2;
const INPROC_BUDGET: Duration = Duration::from_secs(3);
/// Fresh-seed stream id reserved for the in-process probe.
const INPROC_STREAM: u8 = 0xF0;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn time_ms<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let r = f();
    (ms(t0.elapsed()), r)
}

/// Median wall time of `f` over [`REPEATS`] calls.
fn median_ms(mut f: impl FnMut(usize)) -> f64 {
    let v: Vec<f64> = (0..REPEATS).map(|i| time_ms(|| f(i)).0).collect();
    median(&v).expect("REPEATS > 0")
}

/// Run `f` until [`MIN_LOOP`] has elapsed; returns (iterations, seconds).
fn throughput_loop(mut f: impl FnMut()) -> (f64, f64) {
    let t0 = Instant::now();
    let mut iters = 0u64;
    while t0.elapsed() < MIN_LOOP {
        f();
        iters += 1;
    }
    (iters as f64, t0.elapsed().as_secs_f64())
}

/// Step a fresh generation run [`STEPS`] times on `threads` intra-job
/// threads: per-step milliseconds and the snapshots produced.
fn step_run(model: &Vrdag, threads: usize) -> Result<(Vec<f64>, Vec<Snapshot>), String> {
    par::with_threads(threads, || {
        let mut state = model
            .begin_generation(&mut StdRng::seed_from_u64(PROBE_SEED))
            .map_err(|e| e.to_string())?;
        Ok((0..STEPS).map(|_| time_ms(|| state.step(model))).unzip())
    })
}

/// `graph` encoded as the reactor encodes a buffered `GEN` reply.
pub fn encode(graph: &DynamicGraph, fmt: WireFormat) -> Result<Vec<u8>, String> {
    match fmt {
        WireFormat::Tsv => write_tsv(graph, Vec::new()).map_err(|e| e.to_string()),
        WireFormat::Bin => Ok(encode_binary(graph).as_slice().to_vec()),
    }
}

/// `tensor`, `core` and `graph` probes at the workload's model shape, on
/// the intra-job thread count the serve workers run with (`intra`).
pub fn library(fleet: &Fleet, intra: usize) -> Result<Vec<Metric>, String> {
    let handle = &fleet.model;
    let instantiate_ms = median_ms(|_| {
        black_box(handle.instantiate().expect("registered artifacts instantiate"));
    });
    let model = handle.instantiate().map_err(|e| e.to_string())?;
    let begin_ms = median_ms(|i| {
        black_box(model.begin_generation(&mut StdRng::seed_from_u64(i as u64)).expect("fitted"));
    });
    let (one, snapshots) = step_run(&model, 1)?;
    let (two, _) = step_run(&model, 2)?;
    let step_p50 = |v: &[f64]| median(v).expect("STEPS > 0");
    let step_ms = match intra {
        1 => step_p50(&one),
        2 => step_p50(&two),
        n => step_p50(&step_run(&model, n)?.0),
    };

    let cfg = model.config();
    let n = handle.n_nodes();
    let mut rng = StdRng::seed_from_u64(PROBE_SEED);
    let plan = MixBernoulliDecoder::new(
        cfg.d_s(),
        cfg.decoder_hidden,
        cfg.k_mix,
        cfg.leaky_slope,
        &mut rng,
    )
    .plan();
    let s = Matrix::rand_normal(n, cfg.d_s(), 0.0, 1.0, &mut rng);
    let per_step = &model.stats().ok_or("model is fitted")?.edges_per_step;
    let m_target = per_step.iter().sum::<f64>() / per_step.len().max(1) as f64;
    let decode_ms = par::with_threads(intra, || {
        median_ms(|i| {
            black_box(plan.generate_edges(&s, Some(m_target), i as u64));
        })
    });

    let w = Matrix::rand_normal(cfg.d_s(), cfg.decoder_hidden, 0.0, 1.0, &mut rng);
    let (iters, secs) = par::with_threads(intra, || {
        throughput_loop(|| {
            black_box(s.matmul(&w));
        })
    });
    let flops = 2.0 * (n * cfg.d_s() * cfg.decoder_hidden) as f64;

    let f = handle.n_attrs();
    let encode_mb_s = |fmt: WireFormat| -> Result<f64, String> {
        let mut bytes = 0usize;
        let mut failed = None;
        let (_, secs) = throughput_loop(|| {
            let mut out = Vec::new();
            let written = match fmt {
                WireFormat::Tsv => TsvStreamWriter::new(&mut out, n, f, snapshots.len())
                    .and_then(|mut w| snapshots.iter().try_for_each(|s| w.write_snapshot(s))),
                WireFormat::Bin => BinaryStreamWriter::new(&mut out, n, f, snapshots.len())
                    .and_then(|mut w| snapshots.iter().try_for_each(|s| w.write_snapshot(s))),
            };
            if let Err(e) = written {
                failed = Some(e.to_string());
            }
            bytes += black_box(out).len();
        });
        match failed {
            Some(e) => Err(e),
            None => Ok(bytes as f64 / secs / 1e6),
        }
    };

    Ok(vec![
        Metric::new("tensor.matmul_gflops", flops * iters / secs / 1e9, Unit::GflopsPerS),
        Metric::new("tensor.par_speedup", step_p50(&one) / step_p50(&two), Unit::Ratio),
        Metric::new("core.instantiate_ms", instantiate_ms, Unit::Ms),
        Metric::new("core.begin_generation_ms", begin_ms, Unit::Ms),
        Metric::new("core.step_ms_p50", step_ms, Unit::Ms).with_n(STEPS),
        Metric::new("core.decode_edges_ms_p50", decode_ms, Unit::Ms).with_n(REPEATS),
        Metric::new("core.decode_share", decode_ms / step_ms, Unit::Ratio),
        Metric::new("graph.tsv_encode_mb_per_s", encode_mb_s(WireFormat::Tsv)?, Unit::MbPerS),
        Metric::new("graph.bin_encode_mb_per_s", encode_mb_s(WireFormat::Bin)?, Unit::MbPerS),
    ])
}

/// The workload's requests through `ServeHandle::submit` +
/// `Ticket::wait` with no socket (hits for hot classes, fresh misses
/// otherwise), each encoded the way the reactor encodes a `GEN` reply:
/// per-request milliseconds by class.
pub fn inproc(fleet: &Fleet, plan: &Plan, run_seed: u64) -> Result<Vec<Vec<f64>>, String> {
    let addrs = fleet.nodes.iter().map(|n| n.frontend.local_addr()).collect();
    let pool =
        BackendPool::new(addrs, RouterConfig::default().seed_range, &MetricsRegistry::default());
    let mut per_class = vec![Vec::new(); plan.classes.len()];
    let all: Vec<usize> = (0..plan.classes.len()).collect();
    let started = Instant::now();
    for req in Stream::new(plan, all, INPROC_STREAM, run_seed) {
        let done = per_class.iter().all(|v| v.len() >= INPROC_PER_CLASS);
        if done || (started.elapsed() > INPROC_BUDGET && per_class.iter().all(|v| !v.is_empty())) {
            break;
        }
        if per_class[req.class].len() >= INPROC_PER_CLASS {
            continue;
        }
        let class = &plan.classes[req.class];
        // The node the router would place this key on (slot 0 unrouted).
        let slot = pool.place(pool.request_key(fleet.model.fingerprint(), req.seed)).unwrap_or(0);
        let node = &fleet.nodes[slot];
        let (elapsed, bytes) = time_ms(|| -> Result<usize, String> {
            let result = node
                .handle
                .submit(GenRequest::new(MODEL, class.t, req.seed, GenSink::InMemory))
                .and_then(|ticket| ticket.wait())
                .map_err(|e| e.to_string())?;
            let graph = result.graph.ok_or(result.error.unwrap_or_default())?;
            Ok(encode(&graph, class.fmt)?.len())
        });
        bytes?;
        per_class[req.class].push(elapsed);
    }
    Ok(per_class)
}

/// Lock-step `PING` round trips against the first backend's reactor:
/// (p50, p99) in microseconds.
pub fn ping(fleet: &Fleet) -> Result<(f64, f64), String> {
    let rtts = ping_rtts(fleet.nodes[0].frontend.local_addr(), PINGS).map_err(|e| e.to_string())?;
    let p50 = median(&rtts).ok_or("no pings")?;
    let p99 = tail_percentile(&rtts, 0.99).ok_or("too few pings for p99")?;
    Ok((p50, p99))
}
