//! Set-up: fit the workload's model and stand the service up in-process
//! from the same public constructors `vrdag-cli serve` and `route` use,
//! with the CLI's defaults (2 workers, a 64-entry snapshot cache).

use crate::mix::{hot_keys, key_seed, Kind, Plan};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::SocketAddr;
use vrdag::{Vrdag, VrdagConfig};
use vrdag_serve::protocol::{GenSpec, ReplyHeader, Request, WireFormat};
use vrdag_serve::{
    CacheBudget, Frontend, FrontendConfig, GenRequest, GenSink, LineClient, Logger, ModelHandle,
    ModelRegistry, Router, RouterConfig, ServeConfig, ServeHandle, Span, SpanRecorder,
};

/// Name every node registers the model under.
pub const MODEL: &str = "model";
/// `vrdag-cli serve` defaults.
pub const WORKERS: usize = 2;
const CACHE_ENTRIES: usize = 64;
/// Training is part of set-up; the seeds are fixed so every run (and the
/// parent and child commit alike) serves the same model.
const DATA_SEED: u64 = 42;
const FIT_SEED: u64 = 7;
const FIT_EPOCHS: usize = 2;
/// Hot keys pre-warmed per pipelined batch.
const PREWARM_BATCH: usize = 16;

pub struct Node {
    pub handle: ServeHandle,
    pub frontend: Frontend,
}

pub struct Fleet {
    pub nodes: Vec<Node>,
    pub router: Option<Router>,
    /// Where clients connect: the router when routed, else the node.
    pub entry: SocketAddr,
    pub model: ModelHandle,
}

impl Fleet {
    /// Synthesize the dataset, fit, bind, run one warm-up job per worker
    /// and pre-warm the hot keys. `span_ring` sizes every tier's span
    /// ring (the traced run keeps a whole window of spans); `None` keeps
    /// the serving default.
    pub fn start(plan: &Plan, run_seed: u64, span_ring: Option<usize>) -> Result<Fleet, String> {
        let spans = || span_ring.map_or_else(SpanRecorder::default, SpanRecorder::with_capacity);
        let graph = vrdag_datasets::generate(&plan.dataset, DATA_SEED);
        let mut model = Vrdag::new(VrdagConfig {
            epochs: FIT_EPOCHS,
            seed: FIT_SEED,
            ..VrdagConfig::default()
        });
        model.fit(&graph, &mut StdRng::seed_from_u64(FIT_SEED)).map_err(|e| e.to_string())?;
        let backends = if plan.routed { 2 } else { 1 };
        let mut nodes = Vec::with_capacity(backends);
        let mut model_handle = None;
        for _ in 0..backends {
            let registry = ModelRegistry::new();
            let handle = registry.register(MODEL, &model).map_err(|e| e.to_string())?;
            model_handle.get_or_insert(handle);
            let serve = ServeHandle::with_config(
                registry,
                ServeConfig {
                    workers: WORKERS,
                    cache: CacheBudget::entries(CACHE_ENTRIES),
                    logger: Logger::disabled(),
                    ..ServeConfig::default()
                },
            )
            .map_err(|e| e.to_string())?;
            let frontend = Frontend::bind_with(
                serve.clone(),
                "127.0.0.1:0",
                FrontendConfig {
                    // Backends behind the router accept its trace= stamp.
                    trust_tenant_assertion: plan.routed,
                    spans: spans(),
                    ..FrontendConfig::default()
                },
            )
            .map_err(|e| format!("bind: {e}"))?;
            nodes.push(Node { handle: serve, frontend });
        }
        let router = if plan.routed {
            let addrs = nodes.iter().map(|n| n.frontend.local_addr()).collect();
            let cfg = RouterConfig {
                logger: Logger::disabled(),
                spans: spans(),
                ..RouterConfig::default()
            };
            Some(Router::bind("127.0.0.1:0", addrs, cfg).map_err(|e| format!("router: {e}"))?)
        } else {
            None
        };
        let entry = match &router {
            Some(r) => r.local_addr(),
            None => nodes[0].frontend.local_addr(),
        };
        let fleet =
            Fleet { nodes, router, entry, model: model_handle.expect("at least one backend") };
        fleet.warm_up(plan, run_seed)?;
        Ok(fleet)
    }

    /// One job per worker on every node, so each worker has instantiated
    /// its model before the window; then every hot key through the entry
    /// (so the router places it on the backend that will serve it).
    fn warm_up(&self, plan: &Plan, run_seed: u64) -> Result<(), String> {
        let t = plan.min_t();
        for (i, node) in self.nodes.iter().enumerate() {
            let tickets = (0..WORKERS as u64)
                .map(|w| {
                    let seed = key_seed(Kind::WarmUp, i as u8, run_seed, w);
                    node.handle.submit(GenRequest::new(MODEL, t, seed, GenSink::Discard))
                })
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| e.to_string())?;
            for ticket in tickets {
                let result = ticket.wait().map_err(|e| e.to_string())?;
                if let Some(e) = result.error {
                    return Err(format!("warm-up job failed: {e}"));
                }
            }
        }
        if plan.hot_keys == 0 {
            return Ok(());
        }
        let mut client = LineClient::connect(self.entry).map_err(|e| e.to_string())?;
        let keys: Vec<(usize, u64)> = plan
            .hot_ts()
            .into_iter()
            .flat_map(|t| hot_keys(plan, run_seed).into_iter().map(move |seed| (t, seed)))
            .collect();
        // Pipelined so every worker generates, in batches well inside the
        // frontend's per-connection in-flight cap.
        for batch in keys.chunks(PREWARM_BATCH) {
            for (i, &(t, seed)) in batch.iter().enumerate() {
                let spec = GenSpec::new(MODEL, t, seed, WireFormat::Bin).with_tag(format!("w{i}"));
                client.send(&Request::Gen(spec)).map_err(|e| format!("pre-warm: {e}"))?;
            }
            for _ in batch {
                let reply = client.read_frame().map_err(|e| format!("pre-warm: {e}"))?;
                if !matches!(reply.header, ReplyHeader::Gen { .. }) {
                    return Err(format!("pre-warm: unexpected reply {:?}", reply.header));
                }
            }
        }
        Ok(())
    }

    /// Every serve-tier span the backends retain.
    pub fn backend_spans(&self) -> Vec<Span> {
        self.nodes.iter().flat_map(|n| n.frontend.spans().recent(usize::MAX)).collect()
    }

    pub fn router_spans(&self) -> Vec<Span> {
        self.router.as_ref().map(|r| r.spans().recent(usize::MAX)).unwrap_or_default()
    }

    /// Cache hits and misses summed over the backends.
    pub fn cache_counts(&self) -> (u64, u64, u64) {
        self.nodes.iter().fold((0, 0, 0), |(h, m, e), n| {
            let c = n.handle.cache().stats();
            (h + c.hits, m + c.misses, e + c.evictions)
        })
    }

    /// Reactor wakeups summed over the backends.
    pub fn wakeups(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| n.handle.metrics().counter("vrdag_reactor_wakeups_total", &[]).get())
            .sum()
    }

    pub fn router_retries(&self) -> u64 {
        self.router
            .as_ref()
            .map(|r| r.metrics().counter("vrdag_route_retries_total", &[]).get())
            .unwrap_or(0)
    }

    pub fn shutdown(mut self) {
        if let Some(router) = self.router.as_mut() {
            router.shutdown();
        }
        for node in &mut self.nodes {
            node.frontend.shutdown();
            node.handle.shutdown();
        }
    }
}
