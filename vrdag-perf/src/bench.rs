//! One workload run: set up (several times, timed), drive the measured
//! window, verify the bytes, and turn the records into metrics — the
//! end-to-end set untraced, the per-layer set (spans joined by trace id,
//! plus layer probes) traced.

use crate::client::{closed_loop, open_loop, Rec};
use crate::fleet::{Fleet, WORKERS};
use crate::mix::{open_schedule, Plan, Stream, Traffic, Verb, Workload};
use crate::probe;
use crate::report::{Metric, Outcome, Unit};
use crate::stats::{hash_bytes, interquartile_mean, mean, median, slope, tail_percentile, Hasher};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::time::{Duration, Instant};
use vrdag_serve::protocol::WireFormat;
use vrdag_serve::Span;

/// Set-up runs per process; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Keys re-derived through the library after every window.
const VERIFY_KEYS: usize = 16;
/// Span-ring depth of the traced run: every request of the window stays
/// joinable (the default ring keeps 256).
const TRACE_RING: usize = 1 << 17;
/// Reconciliation tolerance: on cache misses the serve stages must
/// account for the client's wall time within ±10%.
const RECONCILE_TOLERANCE: f64 = 0.10;

/// The end-to-end metrics, in report order.
pub const END_TO_END: [(&str, Unit); 6] = [
    ("setup_s", Unit::S),
    ("job_ms_p50", Unit::Ms),
    ("first_snapshot_ms_p50", Unit::Ms),
    ("snapshot_gap_ms_p50", Unit::Ms),
    ("snapshots_per_s", Unit::PerS),
    ("peak_rss_mb", Unit::MiB),
];

/// The per-layer metrics of the traced run, in report order.
pub const PER_LAYER: [(&str, Unit); 25] = [
    ("tensor.matmul_gflops", Unit::GflopsPerS),
    ("tensor.par_speedup", Unit::Ratio),
    ("core.instantiate_ms", Unit::Ms),
    ("core.begin_generation_ms", Unit::Ms),
    ("core.step_ms_p50", Unit::Ms),
    ("core.decode_edges_ms_p50", Unit::Ms),
    ("core.decode_share", Unit::Ratio),
    ("graph.tsv_encode_mb_per_s", Unit::MbPerS),
    ("graph.bin_encode_mb_per_s", Unit::MbPerS),
    ("serve.queue_wait_ms_p50", Unit::Ms),
    ("serve.queue_wait_ms_mean", Unit::Ms),
    ("serve.first_snapshot_ms_p50", Unit::Ms),
    ("serve.generation_ms_p50", Unit::Ms),
    ("serve.delivery_ms_p50", Unit::Ms),
    ("serve.worker_busy_share", Unit::Ratio),
    ("serve.inproc_job_ms_p50", Unit::Ms),
    ("serve.transport_ms_p50", Unit::Ms),
    ("serve.cache.hit_ratio", Unit::Ratio),
    ("serve.cache.lookups", Unit::Count),
    ("serve.cache.evictions", Unit::Count),
    ("serve.reactor.ping_rtt_us_p50", Unit::Us),
    ("serve.reactor.ping_rtt_us_p99", Unit::Us),
    ("serve.reactor.wakeups_per_request", Unit::PerRequest),
    ("obs.stage_sum_over_wall_p50", Unit::Ratio),
    ("obs.trace_job_ms_p50", Unit::Ms),
];

/// What a traced run leaves besides its metrics: the joined client and
/// server spans, rendered for `trace-<workload>.json`.
pub struct Run {
    pub outcome: Outcome,
    pub trace_json: Option<String>,
}

/// Counters read before and after the window.
struct Counters {
    cache: (u64, u64, u64),
    wakeups: u64,
    retries: u64,
}

impl Counters {
    fn read(fleet: &Fleet) -> Counters {
        Counters {
            cache: fleet.cache_counts(),
            wakeups: fleet.wakeups(),
            retries: fleet.router_retries(),
        }
    }
}

fn secs_since(a: Instant, b: Instant) -> f64 {
    b.duration_since(a).as_secs_f64()
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// A latency summary over a mix: the median of each class, combined by
/// the classes' traffic shares (renormalised over classes with samples).
/// Returns the value and the number of samples behind it.
fn class_weighted(plan: &Plan, per_class: &[Vec<f64>], sub_only: bool) -> (Option<f64>, usize) {
    let (mut acc, mut weight, mut n) = (0.0, 0.0, 0);
    for (class, samples) in plan.classes.iter().zip(per_class) {
        if sub_only && class.verb != Verb::Sub {
            continue;
        }
        if let Some(m) = median(samples) {
            acc += class.share * m;
            weight += class.share;
            n += samples.len();
        }
    }
    ((weight > 0.0).then(|| acc / weight), n)
}

/// Snapshots per second: the mean of the middle half of the window's
/// 1-s slices, each counting the snapshots completed in it, so a few
/// seconds in which the host runs slow do not move it. Returns the rate
/// and the number of slices.
fn slice_rate(recs: &[Rec], start: Instant, window: Duration) -> (Option<f64>, usize) {
    let slices = window.as_secs().max(1) as usize;
    let mut counts = vec![0.0; slices];
    for time in recs.iter().filter(|r| r.ok()).flat_map(Rec::snapshot_times) {
        if let Some(slice) = time.checked_duration_since(start).map(|d| d.as_secs() as usize) {
            if let Some(c) = counts.get_mut(slice) {
                *c += 1.0;
            }
        }
    }
    (interquartile_mean(&counts), slices)
}

/// Per-class samples of `f` over the successful records.
fn by_class(plan: &Plan, recs: &[Rec], f: impl Fn(&Rec) -> Vec<f64>) -> Vec<Vec<f64>> {
    let mut out = vec![Vec::new(); plan.classes.len()];
    for rec in recs.iter().filter(|r| r.ok()) {
        out[rec.class].extend(f(rec));
    }
    out
}

/// Hash of `graph` in each wire format.
fn encode_all(graph: &vrdag_graph::DynamicGraph) -> Result<[(WireFormat, u64); 2], String> {
    let hash = |fmt| probe::encode(graph, fmt).map(|bytes| (fmt, hash_bytes(&bytes)));
    Ok([hash(WireFormat::Tsv)?, hash(WireFormat::Bin)?])
}

/// Recompute a seeded sample of the window's keys through the library
/// and compare every reply of those keys with it: wire bytes equal the
/// reference, a `SUB`'s `EVT` payloads concatenate to the `GEN`
/// encoding, and routed bytes equal direct ones — all three hold exactly
/// when every hash matches. A mismatch marks the record failed.
/// Returns (replies checked, mismatches).
fn verify(
    plan: &Plan,
    fleet: &Fleet,
    recs: &mut [Rec],
    run_seed: u64,
) -> Result<(usize, usize), String> {
    let model = fleet.model.instantiate().map_err(|e| e.to_string())?;
    let mut keys: Vec<(usize, u64)> =
        recs.iter().filter(|r| r.ok()).map(|r| (plan.classes[r.class].t, r.seed)).collect();
    keys.sort_unstable();
    keys.dedup();
    let mut rng = StdRng::seed_from_u64(run_seed ^ 0x7E51_F1ED);
    for i in (1..keys.len()).rev() {
        keys.swap(i, rng.gen_range(0..i + 1));
    }
    keys.truncate(VERIFY_KEYS);
    let (mut checked, mut mismatched) = (0, 0);
    for (t, seed) in keys {
        let graph =
            model.generate(t, &mut StdRng::seed_from_u64(seed)).map_err(|e| e.to_string())?;
        let refs = encode_all(&graph)?;
        for rec in recs.iter_mut().filter(|r| r.ok() && r.seed == seed) {
            let class = &plan.classes[rec.class];
            if class.t != t {
                continue;
            }
            let want = refs.iter().find(|(f, _)| *f == class.fmt).map(|(_, h)| *h);
            checked += 1;
            if Some(rec.hash.finish()) != want {
                mismatched += 1;
                rec.error = Some("reply bytes differ from the library reference".to_string());
            }
        }
    }
    Ok((checked, mismatched))
}

/// Digest of fixed keys (seeds 0..3 at the workload's shortest `t`, both
/// formats): independent of `--seed`, so a behaviour change shows as a
/// new digest across commits.
fn verify_digest(plan: &Plan, fleet: &Fleet) -> Result<String, String> {
    let model = fleet.model.instantiate().map_err(|e| e.to_string())?;
    let mut h = Hasher::default();
    for seed in 0..3 {
        let graph = model
            .generate(plan.min_t(), &mut StdRng::seed_from_u64(seed))
            .map_err(|e| e.to_string())?;
        for (_, hash) in encode_all(&graph)? {
            h.write(&hash.to_le_bytes());
        }
    }
    Ok(format!("{:016x}", h.finish()))
}

/// Run one workload for a `window`-long measured window.
pub fn run(
    workload: Workload,
    run_seed: u64,
    window: Duration,
    trace: bool,
    tiny: bool,
) -> Result<Run, String> {
    let plan = Plan::new(workload, tiny);
    let ring = trace.then_some(TRACE_RING);
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut fleet = None;
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let f = Fleet::start(&plan, run_seed, ring)?;
        setups.push(t0.elapsed().as_secs_f64());
        if rep + 1 < SETUP_REPS {
            f.shutdown();
        } else {
            fleet = Some(f);
        }
    }
    let fleet = fleet.expect("SETUP_REPS > 0");

    let before = Counters::read(&fleet);
    let start = Instant::now() + Duration::from_millis(20);
    let end = start + window;
    let (mut recs, lags) = match &plan.traffic {
        Traffic::Closed(passes) => {
            let recs: Vec<Rec> = std::thread::scope(|s| {
                let handles: Vec<_> = passes
                    .iter()
                    .enumerate()
                    .map(|(i, pass)| {
                        let stream = Stream::new(&plan, pass.clone(), i as u8, run_seed);
                        let (plan, entry) = (&plan, fleet.entry);
                        s.spawn(move || closed_loop(entry, plan, stream, start, end))
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("client thread panicked"))
                    .collect()
            });
            (recs, Vec::new())
        }
        Traffic::Open { .. } => {
            let schedule = open_schedule(&plan, window.as_secs_f64(), run_seed);
            open_loop(fleet.entry, &plan, &schedule, start)
        }
    };
    let after = Counters::read(&fleet);
    let last_done = recs.iter().filter_map(|r| r.done).max().unwrap_or(end);

    let (checked, mismatched) = verify(&plan, &fleet, &mut recs, run_seed)?;
    let digest = verify_digest(&plan, &fleet)?;
    let attempted = recs.len();
    let failed = recs.iter().filter(|r| !r.ok()).count();
    let mut problems: Vec<String> = recs
        .iter()
        .filter_map(|r| r.error.clone())
        .take(3)
        .map(|e| format!("request failed: {e}"))
        .collect();

    // End-to-end metrics (and their report-file detail).
    let job = by_class(&plan, &recs, |r| r.job_ms().into_iter().collect());
    let first = by_class(&plan, &recs, |r| r.first_ms().into_iter().collect());
    let gaps = by_class(&plan, &recs, Rec::gaps_ms);
    let (job_p50, job_n) = class_weighted(&plan, &job, false);
    let (first_p50, first_n) = class_weighted(&plan, &first, true);
    let (gap_p50, gap_n) = class_weighted(&plan, &gaps, true);
    let ok_recs = || recs.iter().filter(|r| r.ok());
    let busy_s = secs_since(start, last_done).max(1e-9);
    let (rate, slices) = slice_rate(&recs, start, window);
    let payload: usize = ok_recs().map(|r| r.bytes).sum();
    let end_to_end = vec![
        Metric::maybe("setup_s", median(&setups), Unit::S).with_n(setups.len()),
        Metric::maybe("job_ms_p50", job_p50, Unit::Ms).with_n(job_n),
        Metric::maybe("first_snapshot_ms_p50", first_p50, Unit::Ms).with_n(first_n),
        Metric::maybe("snapshot_gap_ms_p50", gap_p50, Unit::Ms).with_n(gap_n),
        Metric::maybe("snapshots_per_s", rate, Unit::PerS).with_n(slices),
        Metric::maybe("peak_rss_mb", peak_rss_mib(), Unit::MiB),
    ];
    let pooled = |v: &[Vec<f64>]| v.concat();
    let mut extras = vec![
        Metric::maybe("job_ms_p95", tail_percentile(&pooled(&job), 0.95), Unit::Ms).with_n(job_n),
        Metric::maybe("first_snapshot_ms_p95", tail_percentile(&pooled(&first), 0.95), Unit::Ms)
            .with_n(first_n),
        Metric::new("payload_mb_per_s", payload as f64 / busy_s / 1e6, Unit::MbPerS),
        Metric::new("bench.verify_checked", checked as f64, Unit::Count),
        Metric::new("bench.verify_mismatched", mismatched as f64, Unit::Count),
    ];
    if !lags.is_empty() {
        extras.push(
            Metric::maybe("bench.sched_lag_ms_p50", median(&lags), Unit::Ms).with_n(lags.len()),
        );
        extras.push(
            Metric::maybe("bench.sched_lag_ms_p95", tail_percentile(&lags, 0.95), Unit::Ms)
                .with_n(lags.len()),
        );
    }
    if workload == Workload::Fig9Trend {
        extras.extend(fig9_curve(&plan, &job));
    }

    let mut trace_json = None;
    let metrics = if trace {
        let layers = traced(&plan, &fleet, &recs, run_seed, start, last_done, &before, &after)?;
        problems.extend(layers.problems);
        extras.extend(layers.extras);
        trace_json = Some(layers.trace_json);
        let mut m = layers.metrics;
        m.push(Metric::maybe("obs.trace_job_ms_p50", job_p50, Unit::Ms).with_n(job_n));
        m
    } else {
        end_to_end
    };
    let model_fingerprint = format!("{:016x}", fleet.model.fingerprint());
    fleet.shutdown();

    // Exactly the contract's metric set, in table order.
    let table: &[(&str, Unit)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut ordered = Vec::with_capacity(table.len());
    for (name, unit) in table {
        match metrics.iter().find(|m| m.name == *name && m.value.is_some_and(f64::is_finite)) {
            Some(m) => ordered.push(m.clone()),
            None => {
                problems.push(format!("metric {name} could not be measured"));
                ordered.push(Metric::maybe(*name, None, *unit));
            }
        }
    }
    Ok(Run {
        outcome: Outcome {
            workload: workload.name(),
            seed: run_seed,
            seconds: window.as_secs(),
            trace,
            attempted,
            failed,
            problems,
            metrics: ordered,
            extras,
            verify_digest: digest,
            model_fingerprint,
        },
        trace_json,
    })
}

/// The Fig. 9(d) curve: median job seconds per `T`, its least-squares
/// slope, and gen(T_max) ÷ ((T_max/T_min) × gen(T_min)) — 1.0 is exactly
/// linear, below 1 means a fixed per-job cost still shows at T_min.
fn fig9_curve(plan: &Plan, job_ms: &[Vec<f64>]) -> Vec<Metric> {
    let mut out = Vec::new();
    let (mut ts, mut secs) = (Vec::new(), Vec::new());
    for (class, samples) in plan.classes.iter().zip(job_ms) {
        let m = median(samples).map(|ms| ms / 1e3);
        out.push(
            Metric::maybe(format!("fig9d.gen_s_t{}", class.t), m, Unit::S).with_n(samples.len()),
        );
        if let Some(m) = m {
            ts.push(class.t as f64);
            secs.push(m);
        }
    }
    out.push(Metric::maybe("fig9d_s_per_t", slope(&ts, &secs), Unit::SPerT));
    let linearity = match (ts.first(), ts.last(), secs.first(), secs.last()) {
        (Some(&t0), Some(&t1), Some(&s0), Some(&s1)) if t1 > t0 => Some(s1 / ((t1 / t0) * s0)),
        _ => None,
    };
    out.push(Metric::maybe("fig9d_linearity", linearity, Unit::Ratio));
    out
}

struct Layers {
    metrics: Vec<Metric>,
    extras: Vec<Metric>,
    problems: Vec<String>,
    trace_json: String,
}

fn stage(span: &Span, name: &str) -> Option<f64> {
    span.stages_ms.iter().find(|(n, _)| *n == name).map(|(_, ms)| *ms)
}

/// The traced run's per-layer metrics: client records joined with the
/// serve (and route) spans by trace id, counter deltas over the window,
/// and the layer probes.
#[allow(clippy::too_many_arguments)]
fn traced(
    plan: &Plan,
    fleet: &Fleet,
    recs: &[Rec],
    run_seed: u64,
    start: Instant,
    last_done: Instant,
    before: &Counters,
    after: &Counters,
) -> Result<Layers, String> {
    let serve: HashMap<String, Span> =
        fleet.backend_spans().into_iter().map(|s| (s.trace.clone(), s)).collect();
    let route: HashMap<String, Span> =
        fleet.router_spans().into_iter().map(|s| (s.trace.clone(), s)).collect();
    let mut problems = Vec::new();

    let (mut queue, mut first, mut generation, mut delivery) = (vec![], vec![], vec![], vec![]);
    let (mut transport, mut ratio, mut cold_ratio) = (vec![], vec![], vec![]);
    let (mut relay, mut dial, mut busy_ms) = (vec![], vec![], 0.0);
    let mut client_spans = Vec::new();
    for rec in recs.iter().filter(|r| r.ok()) {
        let Some(id) = rec.trace.as_deref() else { continue };
        let Some(span) = serve.get(id) else { continue };
        let wall =
            rec.done.expect("ok records are done").duration_since(rec.sent).as_secs_f64() * 1e3;
        let stages =
            [stage(span, "queue_wait"), stage(span, "generation"), stage(span, "delivery")];
        queue.extend(stages[0]);
        generation.extend(stages[1]);
        delivery.extend(stages[2]);
        first.extend(stage(span, "first_snapshot"));
        busy_ms += stages[1].unwrap_or(0.0) + stages[2].unwrap_or(0.0);
        if let Some(total) = stage(span, "total") {
            transport.push(wall - total);
        }
        let sum: f64 = stages.iter().flatten().sum();
        ratio.push(sum / wall);
        if !plan.classes[rec.class].hot {
            cold_ratio.push(sum / wall);
        }
        if let Some(r) = route.get(id) {
            relay.extend(stage(r, "relay"));
            dial.extend(stage(r, "dial"));
        }
        client_spans.push(client_span_json(plan, rec, start, span, route.get(id)));
    }
    let joined = ratio.len();
    if joined == 0 {
        problems.push("no client request joined a serve span by trace id".to_string());
    }
    // Reconciliation: where the serve tier did real work (cache misses),
    // its stages must account for the client's wall time.
    let reconciled = median(&cold_ratio);
    if let Some(r) = reconciled {
        if (r - 1.0).abs() > RECONCILE_TOLERANCE {
            problems.push(format!(
                "reconciliation failed: serve stages cover {:.3} of the client wall on misses",
                r
            ));
        }
    }

    let intra = fleet.nodes[0].handle.intra_threads();
    let mut metrics = probe::library(fleet, intra)?;
    let inproc = probe::inproc(fleet, plan, run_seed)?;
    let (ping_p50, ping_p99) = probe::ping(fleet)?;
    let (dh, dm, de) = (
        after.cache.0 - before.cache.0,
        after.cache.1 - before.cache.1,
        after.cache.2 - before.cache.2,
    );
    let lookups = dh + dm;
    let window_s = secs_since(start, last_done).max(1e-9);
    let slots = (WORKERS * fleet.nodes.len()) as f64;
    metrics.extend([
        Metric::maybe("serve.queue_wait_ms_p50", median(&queue), Unit::Ms).with_n(queue.len()),
        Metric::maybe("serve.queue_wait_ms_mean", mean(&queue), Unit::Ms).with_n(queue.len()),
        Metric::maybe("serve.first_snapshot_ms_p50", median(&first), Unit::Ms).with_n(first.len()),
        Metric::maybe("serve.generation_ms_p50", median(&generation), Unit::Ms)
            .with_n(generation.len()),
        Metric::maybe("serve.delivery_ms_p50", median(&delivery), Unit::Ms).with_n(delivery.len()),
        Metric::new("serve.worker_busy_share", busy_ms / 1e3 / (slots * window_s), Unit::Ratio),
        Metric::maybe("serve.inproc_job_ms_p50", class_weighted(plan, &inproc, false).0, Unit::Ms)
            .with_n(inproc.iter().map(Vec::len).sum()),
        Metric::maybe("serve.transport_ms_p50", median(&transport), Unit::Ms)
            .with_n(transport.len()),
        Metric::maybe(
            "serve.cache.hit_ratio",
            (lookups > 0).then(|| dh as f64 / lookups as f64),
            Unit::Ratio,
        )
        .with_n(lookups as usize),
        Metric::new("serve.cache.lookups", lookups as f64, Unit::Count),
        Metric::new("serve.cache.evictions", de as f64, Unit::Count),
        Metric::new("serve.reactor.ping_rtt_us_p50", ping_p50, Unit::Us),
        Metric::new("serve.reactor.ping_rtt_us_p99", ping_p99, Unit::Us),
        Metric::new(
            "serve.reactor.wakeups_per_request",
            (after.wakeups - before.wakeups) as f64 / recs.len().max(1) as f64,
            Unit::PerRequest,
        ),
        Metric::maybe("obs.stage_sum_over_wall_p50", median(&ratio), Unit::Ratio).with_n(joined),
    ]);

    let mut extras = vec![
        Metric::maybe("obs.stage_sum_over_wall_misses_p50", reconciled, Unit::Ratio)
            .with_n(cold_ratio.len()),
        Metric::maybe("serve.queue_wait_ms_p95", tail_percentile(&queue, 0.95), Unit::Ms)
            .with_n(queue.len()),
    ];
    if plan.routed {
        let hot_gens: Vec<bool> = recs
            .iter()
            .filter(|r| r.ok() && plan.classes[r.class].hot)
            .filter_map(|r| r.cache_hit)
            .collect();
        let hot_hits = hot_gens.iter().filter(|&&h| h).count();
        extras.extend([
            Metric::maybe("serve.router.hop_ms_p50", median(&transport), Unit::Ms)
                .with_n(transport.len()),
            Metric::maybe("serve.router.hop_ms_p95", tail_percentile(&transport, 0.95), Unit::Ms)
                .with_n(transport.len()),
            Metric::maybe("serve.router.relay_ms_p50", median(&relay), Unit::Ms)
                .with_n(relay.len()),
            Metric::maybe("serve.router.dial_ms_p50", median(&dial), Unit::Ms).with_n(dial.len()),
            Metric::new(
                "serve.router.retries",
                (after.retries - before.retries) as f64,
                Unit::Count,
            ),
            Metric::maybe(
                "serve.router.hot_hit_ratio",
                (!hot_gens.is_empty()).then(|| hot_hits as f64 / hot_gens.len() as f64),
                Unit::Ratio,
            )
            .with_n(hot_gens.len()),
        ]);
    }

    let spans_json = |spans: &HashMap<String, Span>| {
        let mut v: Vec<&Span> = spans.values().collect();
        v.sort_by(|a, b| a.trace.cmp(&b.trace));
        v.iter().map(|s| s.to_json()).collect::<Vec<_>>().join(",\n    ")
    };
    let trace_json = format!(
        "{{\n  \"workload\": {},\n  \"seed\": {run_seed},\n  \"client\": [\n    {}\n  ],\n  \
         \"serve\": [\n    {}\n  ],\n  \"route\": [\n    {}\n  ]\n}}\n",
        crate::json::string(plan.workload.name()),
        client_spans.join(",\n    "),
        spans_json(&serve),
        spans_json(&route),
    );
    Ok(Layers { metrics, extras, problems, trace_json })
}

/// One client-side span: send, first `EVT`, last byte (ms from the
/// window start), joined to its serve (and route) span by trace id.
fn client_span_json(
    plan: &Plan,
    rec: &Rec,
    start: Instant,
    serve: &Span,
    route: Option<&Span>,
) -> String {
    let at = |t: Option<Instant>| crate::json::number(t.map(|t| secs_since(start, t) * 1e3));
    let class = &plan.classes[rec.class];
    format!(
        "{{\"trace\": {}, \"verb\": \"{}\", \"fmt\": \"{}\", \"t\": {}, \"seed\": {}, \"hot\": {}, \
         \"due_ms\": {}, \"sent_ms\": {}, \"first_ms\": {}, \"done_ms\": {}, \"serve_total_ms\": {}, \
         \"route_total_ms\": {}}}",
        crate::json::string(&serve.trace),
        if class.verb == Verb::Gen { "GEN" } else { "SUB" },
        class.fmt,
        class.t,
        rec.seed,
        class.hot,
        at(Some(rec.due)),
        at(Some(rec.sent)),
        at(rec.evts.first().copied()),
        at(rec.done),
        crate::json::number(stage(serve, "total")),
        crate::json::number(route.and_then(|r| stage(r, "total"))),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every name the benchmark emits must match `[A-Za-z0-9_.-]+`.
    fn valid_name(name: &str) -> bool {
        !name.is_empty() && name.bytes().all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    /// BENCHMARK.json at the repository root declares exactly the
    /// metrics this binary emits, with the same units, and only
    /// workloads it knows.
    #[test]
    fn benchmark_file_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to vrdag-perf/");
        let bench = crate::json::parse(&text).unwrap();
        for name in crate::compare::gated_workloads(&bench).unwrap() {
            assert!(Workload::parse(&name).is_some(), "unknown workload {name}");
        }
        let gates = crate::compare::gates(&bench).unwrap();
        let declared: Vec<(&str, &str, bool)> =
            gates.iter().map(|g| (g.name.as_str(), g.unit.as_str(), g.bound.is_some())).collect();
        let emitted: Vec<(&str, &str, bool)> = END_TO_END
            .iter()
            .map(|(n, u)| (*n, u.as_str(), true))
            .chain(PER_LAYER.iter().map(|(n, u)| (*n, u.as_str(), false)))
            .collect();
        assert_eq!(declared, emitted);
        assert!(gates.iter().all(|g| valid_name(&g.name)));
    }

    #[test]
    fn class_weighting_combines_per_class_medians_by_share() {
        let plan = Plan::new(Workload::WarmReplay, true);
        // GEN tsv, GEN bin, SUB tsv, SUB bin — equal shares.
        let per_class = vec![vec![4.0, 4.0, 9.0], vec![1.0], vec![2.0, 2.0], vec![]];
        let (all, n) = class_weighted(&plan, &per_class, false);
        assert_eq!((all, n), (Some((4.0 + 1.0 + 2.0) / 3.0), 6), "empty classes drop out");
        assert_eq!(class_weighted(&plan, &per_class, true), (Some(2.0), 2), "SUB classes only");
    }

    /// Every workload for a 1 s window on the tiny model, untraced and
    /// traced: no failures, exactly the contract's metrics, all finite,
    /// every successful request joined to its serve span by trace id.
    #[test]
    fn every_workload_runs_clean_on_the_tiny_model() {
        for workload in Workload::ALL {
            for trace in [false, true] {
                let run = run(workload, 1, Duration::from_secs(1), trace, true)
                    .unwrap_or_else(|e| panic!("{} trace={trace}: {e}", workload.name()));
                let o = &run.outcome;
                let what = format!("{} trace={trace}: {:?}", o.workload, o.problems);
                assert!(o.correct() && o.attempted > 0 && o.failed == 0, "{what}");
                let table: &[(&str, Unit)] = if trace { &PER_LAYER } else { &END_TO_END };
                let names: Vec<&str> = o.metrics.iter().map(|m| m.name.as_str()).collect();
                assert_eq!(names, table.iter().map(|(n, _)| *n).collect::<Vec<_>>(), "{what}");
                assert!(o.metrics.iter().all(|m| m.value.is_some_and(f64::is_finite)), "{what}");
                for m in o.metrics.iter().chain(&o.extras) {
                    assert!(valid_name(&m.name), "{}", m.name);
                }
                crate::json::parse(&o.result_line()).expect("result line is JSON");
                crate::json::parse(&o.report_json()).expect("report is JSON");
                if trace {
                    let joined = o.metrics.iter().find(|m| m.name == "obs.stage_sum_over_wall_p50");
                    assert_eq!(joined.and_then(|m| m.n), Some(o.attempted), "{what}");
                    let spans = run.trace_json.as_deref().expect("traced runs render spans");
                    crate::json::parse(spans).expect("trace file is JSON");
                }
            }
        }
    }
}
