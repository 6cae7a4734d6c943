//! # vrdag-suite
//!
//! Workspace facade crate: re-exports the public API of every crate in the
//! VRDAG reproduction (*Efficient Dynamic Attributed Graph Generation*,
//! ICDE 2025) and hosts the cross-crate integration tests (`tests/`) and
//! runnable examples (`examples/`).
//!
//! ```
//! use vrdag_suite::prelude::*;
//! use rand::SeedableRng;
//!
//! // Generate a small synthetic dynamic attributed graph and fit VRDAG.
//! let graph = datasets::generate(&datasets::tiny(), 1);
//! let mut model = Vrdag::new(VrdagConfig::test_small());
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! model.fit(&graph, &mut rng).unwrap();
//! let synthetic = model.generate(graph.t_len(), &mut rng).unwrap();
//! assert_eq!(synthetic.n_nodes(), graph.n_nodes());
//! ```

pub use vrdag;
pub use vrdag_baselines as baselines;
pub use vrdag_datasets as datasets;
pub use vrdag_downstream as downstream;
pub use vrdag_graph as graph;
pub use vrdag_metrics as metrics;
pub use vrdag_obs as obs;
pub use vrdag_serve as serve;
pub use vrdag_tensor as tensor;

/// Everything a typical user needs, flat.
pub mod prelude {
    pub use vrdag::{AttrLoss, GenerationState, Vrdag, VrdagConfig};
    pub use vrdag_datasets as datasets;
    pub use vrdag_graph::{
        DynamicGraph, DynamicGraphGenerator, FitReport, GeneratorError, Snapshot,
    };
    pub use vrdag_metrics::{attribute_report, structure_report};
    pub use vrdag_obs::{JobTrace, Level, Logger, Registry as MetricsRegistry};
    pub use vrdag_serve::{
        CacheBudget, CacheStats, CancelToken, Frontend, FrontendConfig, GenRequest, GenSink,
        HttpEndpoints, HttpExpo, LineClient, ModelRegistry, Router, RouterConfig, ServeConfig,
        ServeError, ServeHandle, ServeStats, SnapshotCache, SnapshotStream, Tenant, TenantId,
        TenantRegistry, TenantStats, Ticket,
    };
    pub use vrdag_tensor::{Matrix, Tensor};
}
