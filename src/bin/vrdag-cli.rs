//! `vrdag-cli` — command-line interface for the VRDAG reproduction.
//!
//! ```text
//! vrdag-cli synth          --dataset Email --scale 0.08 --seed 42 --out graph.tsv
//! vrdag-cli summarize      --graph graph.tsv
//! vrdag-cli fit            --graph graph.tsv --epochs 12 --model model.vrdg
//! vrdag-cli generate       --model model.vrdg --t 14 --out synthetic.tsv
//! vrdag-cli batch-generate --model model.vrdg --t 14 --jobs 8 --workers 4 --out-dir runs/
//! vrdag-cli serve          --addr 127.0.0.1:7878 --model model.vrdg --workers 4
//! vrdag-cli evaluate       --original graph.tsv --generated synthetic.tsv
//! ```
//!
//! Graphs use the TSV format of `vrdag_graph::io` (drop in real datasets
//! the same way); models use the binary format of `vrdag::persist`.
//! `serve` speaks the newline-delimited line protocol of
//! `vrdag_serve::protocol` (see the README's "Serving over the wire").

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::process::ExitCode;
use vrdag_suite::graph::io;
use vrdag_suite::metrics;
use vrdag_suite::prelude::*;

/// The `--key value` flags each command accepts.
fn command_keys(cmd: &str) -> Option<&'static [&'static str]> {
    Some(match cmd {
        "synth" => &["dataset", "scale", "seed", "out"],
        "summarize" => &["graph"],
        "fit" => &["graph", "epochs", "seed", "model"],
        "generate" => &["model", "t", "seed", "out"],
        "batch-generate" => &[
            "model",
            "t",
            "jobs",
            "workers",
            "seed",
            "repeat",
            "cache-entries",
            "priority",
            "queue-depth",
            "intra-threads",
            "format",
            "json",
            "out-dir",
        ],
        "serve" => &[
            "model",
            "name",
            "models",
            "addr",
            "workers",
            "intra-threads",
            "cache-entries",
            "queue-depth",
            "max-conns",
            "max-inflight",
            "tenants",
            "internal",
            "log-level",
            "log-json",
            "metrics-json",
            "http-addr",
        ],
        "route" => &[
            "backends",
            "addr",
            "tenants",
            "max-inflight",
            "gen-retries",
            "retry-backoff-ms",
            "dial-timeout-ms",
            "seed-range",
            "log-level",
            "log-json",
            "metrics-json",
            "http-addr",
        ],
        "bench-check" => &["fresh", "floor", "ratio"],
        "evaluate" => &["original", "generated"],
        _ => return None,
    })
}

/// A command's parsed `--key value` flags.
struct Flags(HashMap<String, String>);

impl Flags {
    /// Parse `args` against the keys `cmd` accepts. A key the command does
    /// not know, a key without a value or a stray argument is a usage error.
    fn parse(cmd: &str, keys: &[&str], args: &[String]) -> Flags {
        let mut map = HashMap::new();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let Some(key) = arg.strip_prefix("--") else {
                usage_error(&format!("unexpected argument {arg:?}"));
            };
            if !keys.contains(&key) {
                usage_error(&format!("unknown flag --{key} for {cmd}"));
            }
            let Some(value) = args.next() else {
                usage_error(&format!("--{key} needs a value"));
            };
            map.insert(key.to_string(), value.clone());
        }
        Flags(map)
    }

    fn get(&self, key: &str) -> Option<&String> {
        self.0.get(key)
    }

    /// The value of `--key` parsed as a `T`, or `None` when the flag is
    /// absent. A value that does not parse is a usage error.
    fn parsed<T: std::str::FromStr>(&self, key: &str) -> Option<T> {
        let value = self.0.get(key)?;
        match value.parse() {
            Ok(v) => Some(v),
            Err(_) => usage_error(&format!("invalid value {value:?} for --{key}")),
        }
    }
}

/// Print `msg` and the usage, then exit with status 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    usage();
    std::process::exit(2)
}

/// Machine-readable serving-bench report (`batch-generate --json`): one
/// JSON object per run, hand-rendered because the offline tree's serde
/// derives are no-ops. Throughput, latency percentiles, and cache
/// counters — the fields a bench-trajectory consumer plots over time.
/// `max_job_seconds` is the exact worst `JobResult::seconds` of the run;
/// the percentiles and stage timings are the stats' bucket estimates.
fn bench_json_report(
    stats: &ServeStats,
    max_job_seconds: f64,
    jobs: usize,
    t: usize,
    total_seconds: f64,
    intra_threads: usize,
    conn_scale: &str,
) -> String {
    let l = &stats.latency;
    let c = &stats.cache;
    format!(
        concat!(
            "{{\n",
            "  \"bench\": \"serve\",\n",
            "  \"jobs\": {},\n",
            "  \"t\": {},\n",
            "  \"workers\": {},\n",
            "  \"intra_threads\": {},\n",
            "  \"total_seconds\": {:.6},\n",
            "  \"jobs_per_sec\": {:.3},\n",
            "  \"snapshots_per_sec\": {:.3},\n",
            "  \"single_job_wall_ms\": {:.3},\n",
            "  \"snapshots\": {},\n",
            "  \"edges\": {},\n",
            "  \"latency_ms\": {{ \"p50\": {:.3}, \"p95\": {:.3}, \"p99\": {:.3}, \"mean\": {:.3}, \"max\": {:.3} }},\n",
            "  \"stages_ms\": {{ \"queue_wait_p50\": {:.3}, \"queue_wait_p95\": {:.3}, \"first_snapshot_p50\": {:.3}, \"first_snapshot_p95\": {:.3}, \"generation_p50\": {:.3}, \"generation_p95\": {:.3}, \"delivery_p50\": {:.3}, \"delivery_p95\": {:.3} }},\n",
            "  \"cache\": {{ \"hits\": {}, \"misses\": {}, \"evictions\": {}, \"evicted_bytes\": {}, \"entries\": {}, \"bytes\": {} }},\n",
            "{}",
            "  \"max_in_flight\": {}\n",
            "}}\n",
        ),
        jobs,
        t,
        stats.workers,
        intra_threads,
        total_seconds,
        jobs as f64 / total_seconds.max(1e-9),
        stats.snapshots as f64 / total_seconds.max(1e-9),
        // Worst single-job wall clock: with a 1-job workload this IS the
        // job's wall time — the intra-job speedup gate reads it.
        max_job_seconds * 1e3,
        stats.snapshots,
        stats.edges,
        l.p50_seconds * 1e3,
        l.p95_seconds * 1e3,
        l.p99_seconds * 1e3,
        l.mean_seconds * 1e3,
        max_job_seconds * 1e3,
        stats.stages.queue_wait.p50_seconds * 1e3,
        stats.stages.queue_wait.p95_seconds * 1e3,
        stats.stages.first_snapshot.p50_seconds * 1e3,
        stats.stages.first_snapshot.p95_seconds * 1e3,
        stats.stages.generation.p50_seconds * 1e3,
        stats.stages.generation.p95_seconds * 1e3,
        stats.stages.delivery.p50_seconds * 1e3,
        stats.stages.delivery.p95_seconds * 1e3,
        c.hits,
        c.misses,
        c.evictions,
        c.evicted_bytes,
        c.entries,
        c.bytes,
        conn_scale,
        stats.max_in_flight,
    )
}

/// Connection-scale micro-bench for the reactor frontend: bind a
/// throwaway frontend on a loopback port, open as many idle connections
/// as the fd budget allows (up to 5000, two descriptors per connection),
/// and report the accept throughput plus the resident set while the
/// whole herd is parked. Feeds the `accepted_per_sec` /
/// `c5k_idle_rss_bytes` fields of the bench report; returns `None` when
/// the environment cannot host a meaningful herd (tiny fd limit, bind
/// failure), in which case the report simply omits the fields and
/// `bench-check` skips the matching gates.
fn conn_scale_bench() -> Option<(usize, f64, Option<u64>)> {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use vrdag_suite::serve::poll_os;
    let budget = poll_os::raise_nofile_limit().unwrap_or(1024);
    let target = (budget.saturating_sub(512) / 2).min(5_000) as usize;
    if target < 256 {
        return None;
    }
    // Empty registry: the bench exercises accept/registration only, no
    // job ever needs a model.
    let handle = ServeHandle::with_config(
        ModelRegistry::new(),
        ServeConfig { workers: 1, logger: Logger::disabled(), ..Default::default() },
    )
    .ok()?;
    let mut frontend = Frontend::bind_with(
        handle.clone(),
        "127.0.0.1:0",
        FrontendConfig { max_connections: Some(target + 64), ..Default::default() },
    )
    .ok()?;
    let addr = frontend.local_addr();
    let release = Arc::new(AtomicBool::new(false));
    let started = std::time::Instant::now();
    let openers: Vec<_> = (0..8)
        .map(|i| {
            let release = Arc::clone(&release);
            let share = target / 8 + usize::from(i < target % 8);
            std::thread::spawn(move || {
                let conns: Vec<_> =
                    (0..share).filter_map(|_| std::net::TcpStream::connect(addr).ok()).collect();
                while !release.load(Ordering::Acquire) {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
                drop(conns);
            })
        })
        .collect();
    // A connection counts once the reactor has accepted and registered
    // it — wait for the whole herd to land before sampling.
    let deadline = started + std::time::Duration::from_secs(60);
    while frontend.open_connections() < target && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    let elapsed = started.elapsed().as_secs_f64();
    let opened = frontend.open_connections();
    let rss = poll_os::current_rss_bytes();
    release.store(true, Ordering::Release);
    for t in openers {
        let _ = t.join();
    }
    frontend.shutdown();
    handle.shutdown();
    // Partial herds (connect failures, timeout) below the meaningful
    // floor are dropped rather than recorded as a bogus data point.
    if opened < 256 {
        return None;
    }
    Some((opened, opened as f64 / elapsed.max(1e-9), rss))
}

/// Router-relay micro-bench: two in-process backends behind a
/// [`Router`] on loopback ports, one pipelined client firing tagged
/// `GEN`s through the relay. Measures end-to-end routed jobs/sec — the
/// cost of the extra hop (placement + verbatim relay) on top of the
/// backends' own serving throughput. Returns `None` when any setup step
/// fails (port exhaustion, bind failure), in which case the report
/// omits the field and `bench-check` skips the gate.
fn route_relay_bench(model_path: &str, t: usize) -> Option<f64> {
    use vrdag_suite::serve::protocol::{GenSpec, ReplyHeader, Request, WireFormat};
    let jobs = 48usize;
    let t = t.clamp(1, 6);
    let mut backends = Vec::new();
    let mut addrs = Vec::new();
    for _ in 0..2 {
        let registry = ModelRegistry::new();
        registry.load_file("model", model_path).ok()?;
        let handle = ServeHandle::with_config(
            registry,
            ServeConfig {
                workers: 2,
                cache: CacheBudget::entries(64),
                logger: Logger::disabled(),
                ..Default::default()
            },
        )
        .ok()?;
        // Internal-hop mode: the router stamps tenant=/trace= on the
        // relayed lines, which only an internal frontend accepts.
        let frontend = Frontend::bind_with(
            handle.clone(),
            "127.0.0.1:0",
            FrontendConfig { trust_tenant_assertion: true, ..Default::default() },
        )
        .ok()?;
        addrs.push(frontend.local_addr());
        backends.push((handle, frontend));
    }
    let mut router = Router::bind(
        "127.0.0.1:0",
        addrs,
        RouterConfig { logger: Logger::disabled(), ..Default::default() },
    )
    .ok()?;
    let mut client = LineClient::connect(router.local_addr()).ok()?;
    let started = std::time::Instant::now();
    for i in 0..jobs {
        let spec = GenSpec::new("model", t, i as u64, WireFormat::Bin).with_tag(format!("b{i}"));
        client.send(&Request::Gen(spec)).ok()?;
    }
    let mut done = 0usize;
    while done < jobs {
        let reply = client.read_frame().ok()?;
        match reply.header {
            ReplyHeader::Gen { .. } => done += 1,
            ReplyHeader::Err { .. } => return None,
            _ => {}
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    let _ = client.request(&Request::Quit { tag: None });
    router.shutdown();
    for (handle, mut frontend) in backends {
        frontend.shutdown();
        handle.shutdown();
    }
    Some(jobs as f64 / elapsed.max(1e-9))
}

/// Pull one numeric field out of a hand-rendered bench report without a
/// JSON parser (the offline tree has none): finds `"key":` and parses
/// the number that follows.
fn json_number_field(text: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = text.find(&pat)? + pat.len();
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: vrdag-cli <synth|summarize|fit|generate|batch-generate|serve|route|bench-check|evaluate> [--key value ...]\n\
         \n\
         synth          --dataset <name> [--scale F] [--seed N] --out <graph.tsv>\n\
         summarize      --graph <graph.tsv>\n\
         fit            --graph <graph.tsv> [--epochs N] [--seed N] --model <model.vrdg>\n\
         generate       --model <model.vrdg> --t <T> [--seed N] --out <synthetic.tsv>\n\
         batch-generate --model <model.vrdg> --t <T> [--jobs N] [--workers N] [--seed N]\n\
         \x20              [--repeat R] [--cache-entries N] [--priority P] [--queue-depth N]\n\
         \x20              [--intra-threads N] [--format tsv|bin] [--json <report.json>]\n\
         \x20              --out-dir <dir>   (one file per job, seed-addressed)\n\
         serve          --model <model.vrdg> [--name NAME] [--models n1=p1,n2=p2,...]\n\
         \x20              [--addr HOST:PORT] [--workers N] [--intra-threads N]\n\
         \x20              [--cache-entries N] [--queue-depth N]\n\
         \x20              [--max-conns N] [--max-inflight N]\n\
         \x20              [--tenants <tenants.conf>] [--internal true]\n\
         \x20              [--log-level error|warn|info|debug|off] [--log-json true]\n\
         \x20              [--metrics-json <path>] [--http-addr HOST:PORT]\n\
         \x20              (pipelined line protocol — see docs/PROTOCOL.md; --internal true\n\
         \x20               trusts tenant= and trace= assertions from a fronting router;\n\
         \x20               --http-addr serves /metrics /healthz /readyz /traces /logs;\n\
         \x20               VRDAG_POLLER=auto|epoll|scan picks the readiness backend\n\
         \x20               here and for route)\n\
         route          --backends HOST:PORT,HOST:PORT,... [--addr HOST:PORT]\n\
         \x20              [--tenants <tenants.conf>] [--max-inflight N] [--gen-retries N]\n\
         \x20              [--retry-backoff-ms MS] [--dial-timeout-ms MS] [--seed-range N]\n\
         \x20              [--log-level error|warn|info|debug|off] [--log-json true]\n\
         \x20              [--metrics-json <path>] [--http-addr HOST:PORT]\n\
         \x20              (sharded front tier: terminates AUTH, consistent-hashes\n\
         \x20               (model, seed-range) onto the backends, relays replies\n\
         \x20               verbatim, retries idempotent GENs on backend failure;\n\
         \x20               run the backends with --internal true)\n\
         bench-check    --fresh <new.json> --floor <BENCH_serve.json> [--ratio R]\n\
         \x20              (fail when fresh snapshots_per_sec or accepted_per_sec\n\
         \x20               < floor/R, or fresh single_job_wall_ms or\n\
         \x20               c5k_idle_rss_bytes > floor*R; default R=3; gates whose\n\
         \x20               field is absent from either report are skipped)\n\
         evaluate       --original <graph.tsv> --generated <graph.tsv>"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().cloned() else {
        return usage();
    };
    let Some(keys) = command_keys(&cmd) else {
        return usage();
    };
    let kv = Flags::parse(&cmd, keys, &args[1..]);
    let seed: u64 = kv.parsed("seed").unwrap_or(42);
    match cmd.as_str() {
        "synth" => {
            let (Some(name), Some(out)) = (kv.get("dataset"), kv.get("out")) else {
                return usage();
            };
            let scale: f64 = kv.parsed("scale").unwrap_or(1.0);
            // The error's display form lists every valid spec name, so
            // this message can never drift out of sync with the crate.
            let spec = match datasets::by_name_or_err(name) {
                Ok(spec) => spec,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            let g = datasets::generate(&spec.scaled(scale), seed);
            if let Err(e) = io::save_tsv(&g, out) {
                eprintln!("write failed: {e}");
                return ExitCode::FAILURE;
            }
            println!(
                "wrote {out}: N={} M={} F={} T={}",
                g.n_nodes(),
                g.temporal_edge_count(),
                g.n_attrs(),
                g.t_len()
            );
        }
        "summarize" => {
            let Some(path) = kv.get("graph") else { return usage() };
            match io::load_tsv(path) {
                Ok(g) => println!("{}", metrics::summarize(&g).render()),
                Err(e) => {
                    eprintln!("load failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        "fit" => {
            let (Some(graph_path), Some(model_path)) = (kv.get("graph"), kv.get("model")) else {
                return usage();
            };
            let g = match io::load_tsv(graph_path) {
                Ok(g) => g,
                Err(e) => {
                    eprintln!("load failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let epochs: usize = kv.parsed("epochs").unwrap_or(12);
            let cfg = VrdagConfig { epochs, seed, ..VrdagConfig::default() };
            let mut model = Vrdag::new(cfg);
            let mut rng = StdRng::seed_from_u64(seed);
            match model.fit(&g, &mut rng) {
                Ok(report) => println!(
                    "trained in {:.2}s over {} epochs; final loss {:.4}",
                    report.train_seconds, report.epochs, report.final_loss
                ),
                Err(e) => {
                    eprintln!("fit failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
            if let Err(e) = model.save(model_path) {
                eprintln!("save failed: {e}");
                return ExitCode::FAILURE;
            }
            println!("wrote {model_path}");
        }
        "generate" => {
            let (Some(model_path), Some(out)) = (kv.get("model"), kv.get("out")) else {
                return usage();
            };
            let Some(t): Option<usize> = kv.parsed("t") else {
                eprintln!("--t <snapshots> is required");
                return ExitCode::FAILURE;
            };
            if t == 0 {
                eprintln!("--t must be >= 1 (a dynamic graph needs at least one snapshot)");
                return ExitCode::FAILURE;
            }
            let model = match Vrdag::load(model_path) {
                Ok(m) => m,
                Err(e) => {
                    eprintln!("model load failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let mut rng = StdRng::seed_from_u64(seed);
            let g = match model.generate(t, &mut rng) {
                Ok(g) => g,
                Err(e) => {
                    eprintln!("generation failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if let Err(e) = io::save_tsv(&g, out) {
                eprintln!("write failed: {e}");
                return ExitCode::FAILURE;
            }
            println!("wrote {out}: M={} temporal edges", g.temporal_edge_count());
        }
        "batch-generate" => {
            // Serving-layer batch on the non-blocking core: load the
            // model once into the registry, fire T-snapshot generation
            // jobs (seeds seed..seed+jobs) at a ServeHandle, keep the
            // tickets, and drain them at the end. `--repeat R` resubmits
            // the whole seed range R more times with discarded output
            // (two rounds writing one path would race) — combined with
            // `--cache-entries N` the later rounds are served from the
            // snapshot LRU instead of regenerating.
            let (Some(model_path), Some(out_dir)) = (kv.get("model"), kv.get("out-dir")) else {
                return usage();
            };
            let Some(t): Option<usize> = kv.parsed("t") else {
                eprintln!("--t <snapshots> is required");
                return ExitCode::FAILURE;
            };
            if t == 0 {
                eprintln!("--t must be >= 1 (a dynamic graph needs at least one snapshot)");
                return ExitCode::FAILURE;
            }
            let jobs: usize = kv.parsed("jobs").unwrap_or(4);
            let workers: usize = kv.parsed("workers").unwrap_or(2);
            let repeat: usize = kv.parsed("repeat").unwrap_or(1);
            let cache_entries: usize = kv.parsed("cache-entries").unwrap_or(0);
            let priority: i32 = kv.parsed("priority").unwrap_or(0);
            let queue_depth: Option<usize> = kv.parsed("queue-depth");
            let intra_threads: Option<usize> = kv.parsed("intra-threads");
            let format = kv.get("format").map(String::as_str).unwrap_or("tsv");
            if !matches!(format, "tsv" | "bin") {
                eprintln!("--format must be tsv or bin, got {format:?}");
                return ExitCode::FAILURE;
            }
            if let Err(e) = std::fs::create_dir_all(out_dir) {
                eprintln!("cannot create {out_dir}: {e}");
                return ExitCode::FAILURE;
            }
            let registry = ModelRegistry::new();
            if let Err(e) = registry.load_file("model", model_path) {
                eprintln!("model load failed: {e}");
                return ExitCode::FAILURE;
            }
            let config = ServeConfig {
                workers,
                max_queue_depth: queue_depth,
                cache: CacheBudget::entries(cache_entries),
                intra_threads,
                ..Default::default()
            };
            let handle = match ServeHandle::with_config(registry, config) {
                Ok(h) => h,
                Err(e) => {
                    eprintln!("service construction failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let bench_started = std::time::Instant::now();
            let mut tickets = Vec::with_capacity(jobs * repeat.max(1));
            for round in 0..repeat.max(1) {
                for job_seed in (0..jobs as u64).map(|i| seed.wrapping_add(i)) {
                    // Only the first round owns the output files; repeat
                    // rounds exist to exercise the cache and must not
                    // write paths another in-flight job may hold open.
                    // (submit consumes the sink, so build one per try.)
                    let make_sink = || {
                        if round > 0 {
                            return GenSink::Discard;
                        }
                        let ext = if format == "tsv" { "tsv" } else { "vdag" };
                        let path =
                            std::path::Path::new(out_dir).join(format!("gen-{job_seed}.{ext}"));
                        if format == "tsv" {
                            GenSink::TsvFile(path)
                        } else {
                            GenSink::BinaryFile(path)
                        }
                    };
                    loop {
                        let req = GenRequest::new("model", t, job_seed, make_sink())
                            .with_priority(priority);
                        match handle.submit(req) {
                            Ok(ticket) => {
                                tickets.push(ticket);
                                break;
                            }
                            Err(ServeError::QueueFull { .. }) => {
                                // QueueFull is our own backpressure on
                                // our own finite batch — wait for the
                                // workers to drain a slot and retry,
                                // instead of aborting with partial
                                // output.
                                std::thread::sleep(std::time::Duration::from_millis(2));
                            }
                            Err(e) => {
                                eprintln!("submit failed: {e}");
                                return ExitCode::FAILURE;
                            }
                        }
                    }
                }
            }
            let effective_intra = handle.intra_threads();
            let mut failed = false;
            let mut max_job_seconds = 0.0f64;
            for ticket in tickets {
                match ticket.wait() {
                    Ok(result) => {
                        max_job_seconds = max_job_seconds.max(result.seconds);
                        if let Some(e) = &result.error {
                            eprintln!("job {} (seed {}) failed: {e}", result.id.0, result.seed);
                            failed = true;
                        } else {
                            println!(
                                "job {:>3}  t={} seed={}  {:.3}s  {:.1} snapshots/s  {} edges{}",
                                result.id.0,
                                result.t_len,
                                result.seed,
                                result.seconds,
                                result.snapshots_per_sec,
                                result.edges,
                                if result.cache_hit { "  (cache hit)" } else { "" },
                            );
                        }
                    }
                    Err(e) => {
                        eprintln!("job dropped: {e}");
                        failed = true;
                    }
                }
            }
            // Graceful drain, then the final stats snapshot — including
            // the per-job latency percentiles.
            let stats = handle.shutdown();
            let total_seconds = bench_started.elapsed().as_secs_f64();
            print!("{}", stats.render());
            if let Some(json_path) = kv.get("json") {
                // Machine-readable bench point (e.g. BENCH_serve.json):
                // the bench trajectory accumulates these across runs.
                // The conn-scale pass runs after the job bench so its
                // idle herd never shares the process with generation
                // work (RSS and accept timing stay clean).
                let mut conn_scale = match conn_scale_bench() {
                    Some((conns, accepted_per_sec, rss)) => {
                        let rss_line = rss
                            .map_or(String::new(), |b| format!("  \"c5k_idle_rss_bytes\": {b},\n"));
                        format!(
                            "  \"conn_scale_conns\": {conns},\n  \"accepted_per_sec\": {accepted_per_sec:.3},\n{rss_line}",
                        )
                    }
                    None => String::new(),
                };
                // Router-relay pass: the same protocol through a 2-node
                // sharded tier. Skip-if-absent like the conn-scale
                // fields, so floors that predate the router still gate.
                if let Some(relay) = route_relay_bench(model_path, t) {
                    conn_scale.push_str(&format!("  \"route_relay_jobs_per_sec\": {relay:.3},\n"));
                }
                let report = bench_json_report(
                    &stats,
                    max_job_seconds,
                    jobs * repeat.max(1),
                    t,
                    total_seconds,
                    effective_intra,
                    &conn_scale,
                );
                if let Err(e) = std::fs::write(json_path, &report) {
                    eprintln!("cannot write {json_path}: {e}");
                    return ExitCode::FAILURE;
                }
                println!("wrote {json_path}");
            }
            if failed {
                return ExitCode::FAILURE;
            }
        }
        "serve" => {
            // Long-lived TCP frontend over the non-blocking service
            // core. Register either one model (--model [+ --name]) or a
            // comma-separated list (--models a=p1,b=p2); clients speak
            // the line protocol documented in the README.
            let addr = kv.get("addr").cloned().unwrap_or_else(|| "127.0.0.1:7878".to_string());
            let workers: usize = kv.parsed("workers").unwrap_or(2);
            let cache_entries: usize = kv.parsed("cache-entries").unwrap_or(64);
            let queue_depth: Option<usize> = kv.parsed("queue-depth");
            let intra_threads: Option<usize> = kv.parsed("intra-threads");
            let mut frontend_cfg = FrontendConfig::default();
            if let Some(max_conns) = kv.parsed("max-conns") {
                // 0 means "no cap" on the command line.
                frontend_cfg.max_connections = (max_conns > 0).then_some(max_conns);
            }
            if let Some(max_inflight) = kv.parsed("max-inflight") {
                frontend_cfg.max_inflight_per_conn = max_inflight;
            }
            // Internal-hop mode for nodes behind `vrdag-cli route`: the
            // router terminated AUTH already, so this node trusts the
            // relayed `tenant=` assertion instead of gating on tokens.
            // Bind such a node to loopback or a private network only.
            frontend_cfg.trust_tenant_assertion =
                kv.get("internal").map(String::as_str) == Some("true");
            let registry = ModelRegistry::new();
            if let Some(model_path) = kv.get("model") {
                let name = kv.get("name").map(String::as_str).unwrap_or("model");
                if let Err(e) = registry.load_file(name, model_path) {
                    eprintln!("model load failed ({model_path}): {e}");
                    return ExitCode::FAILURE;
                }
            }
            if let Some(list) = kv.get("models") {
                for entry in list.split(',').filter(|s| !s.is_empty()) {
                    let Some((name, path)) = entry.split_once('=') else {
                        eprintln!("--models entries must be name=path, got {entry:?}");
                        return ExitCode::FAILURE;
                    };
                    if let Err(e) = registry.load_file(name, path) {
                        eprintln!("model load failed ({path}): {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            if registry.is_empty() {
                eprintln!("serve needs at least one model (--model or --models)");
                return ExitCode::FAILURE;
            }
            let tenants = match kv.get("tenants") {
                None => TenantRegistry::anonymous_only(),
                Some(path) => match TenantRegistry::from_file(path) {
                    Ok(t) => t,
                    Err(e) => {
                        eprintln!("tenants config load failed ({path}): {e}");
                        return ExitCode::FAILURE;
                    }
                },
            };
            // Structured startup/runtime logging: --log-level off
            // silences it, --log-json true switches the lines to JSON.
            let log_json = kv.get("log-json").map(String::as_str) == Some("true");
            let logger = match kv.get("log-level").map(String::as_str).unwrap_or("info") {
                "off" | "none" => Logger::disabled(),
                name => match Level::parse(name) {
                    Some(level) => Logger::to_stderr(level, log_json),
                    None => {
                        eprintln!("--log-level must be error|warn|info|debug|off, got {name:?}");
                        return ExitCode::FAILURE;
                    }
                },
            };
            let config = ServeConfig {
                workers,
                max_queue_depth: queue_depth,
                cache: CacheBudget::entries(cache_entries),
                tenants: tenants.clone(),
                logger: logger.clone(),
                intra_threads,
            };
            let cache_budget = config.cache;
            let handle = match ServeHandle::with_config(registry, config) {
                Ok(h) => h,
                Err(e) => {
                    eprintln!("service construction failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let frontend =
                match Frontend::bind_with(handle.clone(), addr.as_str(), frontend_cfg.clone()) {
                    Ok(f) => f,
                    Err(e) => {
                        eprintln!("cannot bind {addr}: {e}");
                        return ExitCode::FAILURE;
                    }
                };
            let local = frontend.local_addr();
            // Log the full effective configuration at startup so a
            // deployment is auditable from its log output alone (the
            // frontend already logged its own "listening" event).
            logger.info(
                "serve.cli",
                "vrdag-serve started",
                &[
                    ("addr", local.to_string()),
                    ("workers", workers.to_string()),
                    ("intra_threads", handle.intra_threads().to_string()),
                    (
                        "queue_depth_cap",
                        queue_depth.map_or("unlimited".to_string(), |d| d.to_string()),
                    ),
                    ("cache_entries", cache_budget.max_entries.to_string()),
                    ("cache_mib", (cache_budget.max_bytes >> 20).to_string()),
                    (
                        "max_conns",
                        frontend_cfg
                            .max_connections
                            .map_or("unlimited".to_string(), |c| c.to_string()),
                    ),
                    ("max_inflight_per_conn", frontend_cfg.max_inflight_per_conn.to_string()),
                    ("poller", frontend.poller().to_string()),
                    (
                        "auth",
                        if frontend_cfg.trust_tenant_assertion {
                            "internal (trusting router tenant= assertions)".to_string()
                        } else if tenants.auth_enabled() {
                            format!("on ({} tenants)", tenants.len())
                        } else {
                            "off".to_string()
                        },
                    ),
                ],
            );
            for h in handle.registry().handles() {
                logger.info(
                    "serve.cli",
                    "model registered",
                    &[
                        ("name", h.name().to_string()),
                        ("nodes", h.n_nodes().to_string()),
                        ("attrs", h.n_attrs().to_string()),
                        ("bytes", h.size_bytes().to_string()),
                        ("fingerprint", format!("{:016x}", h.fingerprint())),
                    ],
                );
            }
            logger.info(
                "serve.cli",
                "try it",
                &[(
                    "hint",
                    format!(
                        "printf '{}MODELS\\n' | nc {} {}",
                        if tenants.auth_enabled() { "AUTH token=<token>\\n" } else { "" },
                        local.ip(),
                        local.port(),
                    ),
                )],
            );
            // Optional HTTP observability listener: /metrics (identical
            // to the wire METRICS payload), /healthz, /readyz, /traces,
            // /logs — see docs/OPERATIONS.md.
            let _http = match kv.get("http-addr") {
                None => None,
                Some(http_addr) => {
                    let metrics_handle = handle.clone();
                    let ready_handle = handle.clone();
                    let endpoints = HttpEndpoints {
                        metrics: Box::new(move || metrics_handle.metrics_text()),
                        ready: Box::new(move || ready_handle.is_accepting()),
                        spans: frontend.spans().clone(),
                        logger: logger.clone(),
                    };
                    match HttpExpo::bind(http_addr.as_str(), endpoints) {
                        Ok(expo) => {
                            logger.info(
                                "serve.cli",
                                "http observability listening",
                                &[("http_addr", expo.local_addr().to_string())],
                            );
                            Some(expo)
                        }
                        Err(e) => {
                            eprintln!("cannot bind http {http_addr}: {e}");
                            return ExitCode::FAILURE;
                        }
                    }
                }
            };
            let metrics_json_path = kv.get("metrics-json").cloned();
            let dump_metrics = |handle: &ServeHandle| {
                if let Some(path) = &metrics_json_path {
                    if let Err(e) = std::fs::write(path, handle.metrics_json()) {
                        logger.warn(
                            "serve.cli",
                            "metrics dump failed",
                            &[("path", path.clone()), ("error", e.to_string())],
                        );
                    }
                }
            };
            // Write the dump immediately so scrapers find the file
            // without waiting out the first stats interval.
            dump_metrics(&handle);
            // Serve until killed; periodically surface the running
            // stats so an operator tailing the process sees traffic,
            // and refresh the machine-readable metrics dump if asked.
            loop {
                std::thread::sleep(std::time::Duration::from_secs(60));
                print!("{}", handle.stats().render());
                dump_metrics(&handle);
            }
        }
        "route" => {
            // Sharded front tier: one process speaking the line
            // protocol on both hops. Clients connect here exactly as
            // they would to a single vrdag-serve; requests are
            // consistent-hashed onto the --backends fleet (run those
            // with `serve --internal true` so per-tenant quotas follow
            // the relayed tenant= assertion).
            let addr = kv.get("addr").cloned().unwrap_or_else(|| "127.0.0.1:7879".to_string());
            let Some(list) = kv.get("backends") else {
                eprintln!("route needs --backends HOST:PORT,HOST:PORT,...");
                return usage();
            };
            let mut backends = Vec::new();
            for entry in list.split(',').filter(|s| !s.is_empty()) {
                use std::net::ToSocketAddrs;
                match entry.to_socket_addrs().ok().and_then(|mut it| it.next()) {
                    Some(sockaddr) => backends.push(sockaddr),
                    None => {
                        eprintln!("cannot resolve backend address {entry:?}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            if backends.is_empty() {
                eprintln!("route needs at least one backend");
                return ExitCode::FAILURE;
            }
            let tenants = match kv.get("tenants") {
                None => TenantRegistry::anonymous_only(),
                Some(path) => match TenantRegistry::from_file(path) {
                    Ok(t) => t,
                    Err(e) => {
                        eprintln!("tenants config load failed ({path}): {e}");
                        return ExitCode::FAILURE;
                    }
                },
            };
            let log_json = kv.get("log-json").map(String::as_str) == Some("true");
            let logger = match kv.get("log-level").map(String::as_str).unwrap_or("info") {
                "off" | "none" => Logger::disabled(),
                name => match Level::parse(name) {
                    Some(level) => Logger::to_stderr(level, log_json),
                    None => {
                        eprintln!("--log-level must be error|warn|info|debug|off, got {name:?}");
                        return ExitCode::FAILURE;
                    }
                },
            };
            let mut cfg = RouterConfig {
                tenants: tenants.clone(),
                logger: logger.clone(),
                ..Default::default()
            };
            if let Some(n) = kv.parsed("max-inflight") {
                cfg.max_inflight_per_conn = n;
            }
            if let Some(n) = kv.parsed("gen-retries") {
                cfg.gen_retries = n;
            }
            if let Some(ms) = kv.parsed("retry-backoff-ms") {
                cfg.retry_backoff = std::time::Duration::from_millis(ms);
            }
            if let Some(ms) = kv.parsed("dial-timeout-ms") {
                cfg.dial_timeout = std::time::Duration::from_millis(ms);
            }
            if let Some(n) = kv.parsed::<u64>("seed-range") {
                cfg.seed_range = n.max(1);
            }
            let n_backends = backends.len();
            // Behind an `Arc` so the HTTP endpoint closures can call
            // into it from their own threads; the route loop below
            // never exits, so the router is never shut down explicitly.
            let router = match Router::bind(addr.as_str(), backends, cfg) {
                Ok(r) => std::sync::Arc::new(r),
                Err(e) => {
                    eprintln!("cannot bind {addr}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            logger.info(
                "route.cli",
                "vrdag-route started",
                &[
                    ("addr", router.local_addr().to_string()),
                    ("backends", n_backends.to_string()),
                    (
                        "auth",
                        if tenants.auth_enabled() {
                            format!("on ({} tenants, asserted to backends)", tenants.len())
                        } else {
                            "off".to_string()
                        },
                    ),
                ],
            );
            // Optional HTTP observability listener, same shape as the
            // serve tier's: /metrics fans out to the backends exactly
            // like the wire METRICS aggregate, /readyz demands >= 1
            // backend up.
            let _http = match kv.get("http-addr") {
                None => None,
                Some(http_addr) => {
                    let metrics_router = std::sync::Arc::clone(&router);
                    let ready_router = std::sync::Arc::clone(&router);
                    let endpoints = HttpEndpoints {
                        metrics: Box::new(move || metrics_router.metrics_text()),
                        ready: Box::new(move || ready_router.ready()),
                        spans: router.spans().clone(),
                        logger: logger.clone(),
                    };
                    match HttpExpo::bind(http_addr.as_str(), endpoints) {
                        Ok(expo) => {
                            logger.info(
                                "route.cli",
                                "http observability listening",
                                &[("http_addr", expo.local_addr().to_string())],
                            );
                            Some(expo)
                        }
                        Err(e) => {
                            eprintln!("cannot bind http {http_addr}: {e}");
                            return ExitCode::FAILURE;
                        }
                    }
                }
            };
            let metrics_json_path = kv.get("metrics-json").cloned();
            let dump_metrics = || {
                if let Some(path) = &metrics_json_path {
                    if let Err(e) = std::fs::write(path, router.metrics().render_json()) {
                        logger.warn(
                            "route.cli",
                            "metrics dump failed",
                            &[("path", path.clone()), ("error", e.to_string())],
                        );
                    }
                }
            };
            // Write the dump immediately so scrapers find the file
            // without waiting out the first stats interval.
            dump_metrics();
            // Route until killed; periodically surface the router's own
            // metrics so an operator tailing the process sees traffic,
            // and refresh the machine-readable metrics dump if asked.
            loop {
                std::thread::sleep(std::time::Duration::from_secs(60));
                print!("{}", router.metrics().render());
                dump_metrics();
            }
        }
        "bench-check" => {
            // CI regression gate over the committed bench floor: compare
            // a freshly produced `batch-generate --json` report against
            // the checked-in one and fail on a >R-fold throughput drop.
            // The wide default ratio tolerates noisy shared runners; a
            // genuine perf regression lands well past it.
            let (Some(fresh_path), Some(floor_path)) = (kv.get("fresh"), kv.get("floor")) else {
                return usage();
            };
            let ratio: f64 = kv.parsed("ratio").unwrap_or(3.0);
            let read = |path: &String| match std::fs::read_to_string(path) {
                Ok(text) => Some(text),
                Err(e) => {
                    eprintln!("cannot read {path}: {e}");
                    None
                }
            };
            let (Some(fresh), Some(floor)) = (read(fresh_path), read(floor_path)) else {
                return ExitCode::FAILURE;
            };
            let field = "snapshots_per_sec";
            let (Some(fresh_v), Some(floor_v)) =
                (json_number_field(&fresh, field), json_number_field(&floor, field))
            else {
                eprintln!("missing {field:?} in one of the reports");
                return ExitCode::FAILURE;
            };
            let min = floor_v / ratio.max(1.0);
            println!(
                "bench-check: fresh {fresh_v:.3} snapshots/s vs floor {floor_v:.3} (min allowed {min:.3})",
            );
            if fresh_v < min {
                eprintln!(
                    "bench-check FAILED: {fresh_v:.3} < {min:.3} (floor {floor_v:.3} / ratio {ratio})",
                );
                return ExitCode::FAILURE;
            }
            // Second gate, upper bound this time: the worst single-job
            // wall clock must not blow past the recorded floor (intra-job
            // parallelism regression shows up here even when aggregate
            // throughput hides it behind more workers). Skipped when
            // either report predates the field.
            let wall = "single_job_wall_ms";
            match (json_number_field(&fresh, wall), json_number_field(&floor, wall)) {
                (Some(fresh_w), Some(floor_w)) => {
                    let max = floor_w * ratio.max(1.0);
                    println!(
                        "bench-check: fresh {fresh_w:.3} single-job ms vs floor {floor_w:.3} (max allowed {max:.3})",
                    );
                    if fresh_w > max {
                        eprintln!(
                            "bench-check FAILED: {fresh_w:.3} > {max:.3} (floor {floor_w:.3} * ratio {ratio})",
                        );
                        return ExitCode::FAILURE;
                    }
                }
                _ => println!("bench-check: {wall} absent from a report, gate skipped"),
            }
            // Reactor-frontend gates, both skip-if-absent so floor files
            // that predate the conn-scale bench keep working: accept
            // throughput must not collapse, and the idle resident set
            // with the ~5k-connection herd parked must not blow up (a
            // per-connection memory regression shows up here long before
            // anything else notices). Both use the same wide ratio — the
            // herd size can differ slightly between environments.
            let aps = "accepted_per_sec";
            match (json_number_field(&fresh, aps), json_number_field(&floor, aps)) {
                (Some(fresh_a), Some(floor_a)) => {
                    let min = floor_a / ratio.max(1.0);
                    println!(
                        "bench-check: fresh {fresh_a:.3} accepted/s vs floor {floor_a:.3} (min allowed {min:.3})",
                    );
                    if fresh_a < min {
                        eprintln!(
                            "bench-check FAILED: {fresh_a:.3} < {min:.3} (floor {floor_a:.3} / ratio {ratio})",
                        );
                        return ExitCode::FAILURE;
                    }
                }
                _ => println!("bench-check: {aps} absent from a report, gate skipped"),
            }
            // Router-relay gate (lower bound, skip-if-absent): routed
            // throughput through the 2-backend loopback tier must not
            // collapse relative to the recorded floor.
            let relay = "route_relay_jobs_per_sec";
            match (json_number_field(&fresh, relay), json_number_field(&floor, relay)) {
                (Some(fresh_j), Some(floor_j)) => {
                    let min = floor_j / ratio.max(1.0);
                    println!(
                        "bench-check: fresh {fresh_j:.3} routed jobs/s vs floor {floor_j:.3} (min allowed {min:.3})",
                    );
                    if fresh_j < min {
                        eprintln!(
                            "bench-check FAILED: {fresh_j:.3} < {min:.3} (floor {floor_j:.3} / ratio {ratio})",
                        );
                        return ExitCode::FAILURE;
                    }
                }
                _ => println!("bench-check: {relay} absent from a report, gate skipped"),
            }
            let rss = "c5k_idle_rss_bytes";
            match (json_number_field(&fresh, rss), json_number_field(&floor, rss)) {
                (Some(fresh_r), Some(floor_r)) => {
                    let max = floor_r * ratio.max(1.0);
                    println!(
                        "bench-check: fresh {:.1} MiB idle RSS vs floor {:.1} MiB (max allowed {:.1})",
                        fresh_r / (1u64 << 20) as f64,
                        floor_r / (1u64 << 20) as f64,
                        max / (1u64 << 20) as f64,
                    );
                    if fresh_r > max {
                        eprintln!(
                            "bench-check FAILED: {fresh_r:.0} > {max:.0} bytes (floor {floor_r:.0} * ratio {ratio})",
                        );
                        return ExitCode::FAILURE;
                    }
                }
                _ => println!("bench-check: {rss} absent from a report, gate skipped"),
            }
            println!("bench-check OK");
        }
        "evaluate" => {
            let (Some(orig), Some(gen)) = (kv.get("original"), kv.get("generated")) else {
                return usage();
            };
            let (a, b) = match (io::load_tsv(orig), io::load_tsv(gen)) {
                (Ok(a), Ok(b)) => (a, b),
                (Err(e), _) | (_, Err(e)) => {
                    eprintln!("load failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let s = structure_report(&a, &b);
            println!("structure metrics (Table I, lower = better):");
            for (name, v) in metrics::StructureReport::headers().iter().zip(s.as_row()) {
                println!("  {name:<13} {v:.5}");
            }
            if a.n_attrs() > 0 && b.n_attrs() > 0 {
                let r = attribute_report(&a, &b);
                println!("attribute metrics: JSD={:.5} EMD={:.5}", r.jsd, r.emd);
            }
        }
        _ => return usage(),
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::command_keys;
    use std::collections::BTreeSet;

    /// Every key `code` reads through `kv.get("…")` or `kv.parsed…("…")`.
    fn keys_read(code: &str) -> BTreeSet<&str> {
        let mut keys = BTreeSet::new();
        for (at, _) in code.match_indices("kv.") {
            let call = &code[at + 3..];
            if !(call.starts_with("get(") || call.starts_with("parsed")) {
                continue;
            }
            let open = call.find("(\"").expect("a flag read names its key as a literal");
            let key = &call[open + 2..];
            keys.insert(&key[..key.find('"').expect("a closing quote")]);
        }
        keys
    }

    /// Each command's flag list is exactly the keys that command reads, so
    /// a flag the code reads is never rejected as unknown and a listed flag
    /// is never accepted and then ignored. A read before the `match` on the
    /// command serves every command that lists its key.
    #[test]
    fn each_command_lists_exactly_the_flags_it_reads() {
        let src = include_str!("vrdag-cli.rs");
        let main = &src[src.find("\nfn main()").unwrap()..src.find("\n#[cfg(test)]").unwrap()];
        let commands = [
            "synth",
            "summarize",
            "fit",
            "generate",
            "batch-generate",
            "serve",
            "route",
            "bench-check",
            "evaluate",
        ];
        let arm = |cmd: &str| {
            main.find(&format!("\n        \"{cmd}\" => {{\n")).unwrap_or_else(|| panic!("{cmd}"))
        };
        let mut starts: Vec<(usize, &str)> = commands.iter().map(|&c| (arm(c), c)).collect();
        starts.sort();
        let shared = keys_read(&main[..starts[0].0]);
        for (i, &(start, cmd)) in starts.iter().enumerate() {
            let end = starts.get(i + 1).map_or(main.len(), |&(next, _)| next);
            let listed: BTreeSet<&str> = command_keys(cmd).unwrap().iter().copied().collect();
            let read = keys_read(&main[start..end]);
            let unlisted: Vec<_> = read.difference(&listed).collect();
            assert!(unlisted.is_empty(), "{cmd} reads {unlisted:?} but does not list them");
            let unread: Vec<_> =
                listed.iter().filter(|k| !read.contains(*k) && !shared.contains(*k)).collect();
            assert!(unread.is_empty(), "{cmd} lists {unread:?} but never reads them");
        }
        assert_eq!(command_keys("no-such-command"), None);
    }
}
