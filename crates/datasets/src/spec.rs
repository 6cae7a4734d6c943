//! Dataset specifications mirroring Table I of the paper.
//!
//! The real datasets (Emails-DNC, Bitcoin-Alpha, Wiki-Vote, Brain, GDELT and
//! the proprietary Guarantee loan network) are not redistributable, so each
//! spec drives a synthetic generator that reproduces the Table I shape
//! parameters (N, M, F, T) and the qualitative regime of the original
//! (degree heavy-tail, community structure, edge persistence, reciprocity,
//! burstiness, structure–attribute co-evolution).

/// Qualitative regime of a dataset, tuning the synthetic generator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Flavor {
    /// Email-like communication: strong reciprocity, medium communities.
    Communication,
    /// Marketplace trust/ratings: low reciprocity, heavy-tailed raters.
    Transaction,
    /// Endorsement/voting: star-heavy, almost no reciprocity.
    Vote,
    /// Guaranteed-loan network: sparse, tree-like guarantor → borrower flow.
    Loan,
    /// Brain-activity graph: dense, periodic activity, many attributes.
    Activity,
    /// News-event graph: dense, bursty, event-driven.
    Event,
}

/// Full specification of a synthetic dynamic attributed graph dataset.
#[derive(Clone, Debug)]
pub struct DatasetSpec {
    /// Dataset name as used in the paper's tables.
    pub name: String,
    /// Number of nodes `N`.
    pub n: usize,
    /// Target number of temporal edges `M = Σ_t |E_t|`.
    pub m: usize,
    /// Attribute dimensionality `F` (the paper's `X` column).
    pub f: usize,
    /// Number of snapshots `T`.
    pub t: usize,
    /// Qualitative regime.
    pub flavor: Flavor,
    /// Number of planted communities.
    pub communities: usize,
    /// Fraction of edges surviving into the next snapshot.
    pub edge_persistence: f64,
    /// Probability that a new edge stays inside the source community.
    pub community_bias: f64,
    /// Power-law exponent of the node activity weights (heavier tail for
    /// smaller values).
    pub activity_exponent: f64,
    /// Probability of immediately adding the reciprocal edge.
    pub reciprocity: f64,
    /// Amplitude of the per-timestep activity modulation (0 = flat).
    pub burstiness: f64,
    /// Period (in snapshots) of the activity modulation.
    pub burst_period: usize,
    /// AR(1) coefficient of the attribute evolution.
    pub attr_autocorr: f64,
    /// Neighbor-diffusion coefficient (attributes drift toward the mean of
    /// their in-neighborhood — one half of the co-evolution loop).
    pub attr_diffusion: f64,
    /// Coupling of attribute value to log-degree (the other half of the
    /// co-evolution loop: high-degree nodes develop distinct attributes and
    /// attribute affinity biases future links).
    pub degree_coupling: f64,
    /// Std-dev of the per-step attribute innovation noise.
    pub attr_noise: f64,
    /// Strength of attribute-affinity edge preference in `[0, 1]`.
    pub attr_affinity: f64,
    /// Strength of the shared latent factor tying attribute dimensions
    /// together (cross-attribute Spearman correlation; Table II of the
    /// paper relies on the real datasets having strongly correlated
    /// attributes).
    pub attr_factor_strength: f64,
}

impl DatasetSpec {
    /// Scale node count and temporal edge budget by `factor` (timesteps and
    /// attribute dimensionality are preserved). Used for laptop-scale runs.
    pub fn scaled(&self, factor: f64) -> DatasetSpec {
        assert!(factor > 0.0, "scale factor must be positive");
        let mut s = self.clone();
        s.n = ((self.n as f64 * factor).round() as usize).max(16);
        s.m = ((self.m as f64 * factor).round() as usize).max(4 * s.t);
        s.name = if (factor - 1.0).abs() < 1e-12 {
            self.name.clone()
        } else {
            format!("{}@{:.2}", self.name, factor)
        };
        s
    }

    /// Shorten the snapshot sequence (used by the Fig. 9 timestep sweep).
    pub fn with_t(&self, t: usize) -> DatasetSpec {
        assert!(t >= 1);
        let mut s = self.clone();
        // Keep per-snapshot density constant.
        s.m = (self.m as f64 * t as f64 / self.t as f64).round() as usize;
        s.t = t;
        s
    }

    /// Mean edges per snapshot.
    pub fn edges_per_snapshot(&self) -> usize {
        self.m / self.t
    }
}

/// Emails-DNC: N=1,891, M=39,264, F=2, T=14.
pub fn email() -> DatasetSpec {
    DatasetSpec {
        name: "Email".into(),
        n: 1891,
        m: 39_264,
        f: 2,
        t: 14,
        flavor: Flavor::Communication,
        communities: 12,
        edge_persistence: 0.45,
        community_bias: 0.75,
        activity_exponent: 2.1,
        reciprocity: 0.35,
        burstiness: 0.35,
        burst_period: 7,
        attr_autocorr: 0.85,
        attr_diffusion: 0.10,
        degree_coupling: 0.25,
        attr_noise: 0.08,
        attr_affinity: 0.5,
        attr_factor_strength: 0.7,
    }
}

/// Bitcoin-Alpha: N=3,783, M=24,186, F=1, T=37.
pub fn bitcoin() -> DatasetSpec {
    DatasetSpec {
        name: "Bitcoin".into(),
        n: 3783,
        m: 24_186,
        f: 1,
        t: 37,
        flavor: Flavor::Transaction,
        communities: 20,
        edge_persistence: 0.15,
        community_bias: 0.45,
        activity_exponent: 1.9,
        reciprocity: 0.12,
        burstiness: 0.25,
        burst_period: 12,
        attr_autocorr: 0.9,
        attr_diffusion: 0.15,
        degree_coupling: 0.35,
        attr_noise: 0.1,
        attr_affinity: 0.35,
        attr_factor_strength: 0.7,
    }
}

/// Wiki-Vote: N=7,115, M=103,689, F=1, T=43.
pub fn wiki() -> DatasetSpec {
    DatasetSpec {
        name: "Wiki".into(),
        n: 7115,
        m: 103_689,
        f: 1,
        t: 43,
        flavor: Flavor::Vote,
        communities: 30,
        edge_persistence: 0.25,
        community_bias: 0.4,
        activity_exponent: 1.85,
        reciprocity: 0.06,
        burstiness: 0.3,
        burst_period: 10,
        attr_autocorr: 0.88,
        attr_diffusion: 0.08,
        degree_coupling: 0.4,
        attr_noise: 0.1,
        attr_affinity: 0.3,
        attr_factor_strength: 0.7,
    }
}

/// Guarantee (proprietary loan network): N=5,530, M=6,169, F=2, T=15.
pub fn guarantee() -> DatasetSpec {
    DatasetSpec {
        name: "Guarantee".into(),
        n: 5530,
        m: 6169,
        f: 2,
        t: 15,
        flavor: Flavor::Loan,
        communities: 80,
        edge_persistence: 0.7,
        community_bias: 0.9,
        activity_exponent: 2.4,
        reciprocity: 0.02,
        burstiness: 0.15,
        burst_period: 5,
        attr_autocorr: 0.92,
        attr_diffusion: 0.2,
        degree_coupling: 0.3,
        attr_noise: 0.05,
        attr_affinity: 0.6,
        attr_factor_strength: 0.7,
    }
}

/// Brain: N=5,000, M=529,093, F=20, T=12.
pub fn brain() -> DatasetSpec {
    DatasetSpec {
        name: "Brain".into(),
        n: 5000,
        m: 529_093,
        f: 20,
        t: 12,
        flavor: Flavor::Activity,
        communities: 10,
        edge_persistence: 0.6,
        community_bias: 0.85,
        activity_exponent: 2.6,
        reciprocity: 0.5,
        burstiness: 0.5,
        burst_period: 4,
        attr_autocorr: 0.8,
        attr_diffusion: 0.25,
        degree_coupling: 0.2,
        attr_noise: 0.12,
        attr_affinity: 0.55,
        attr_factor_strength: 0.7,
    }
}

/// GDELT: N=5,037, M=566,735, F=10, T=18.
pub fn gdelt() -> DatasetSpec {
    DatasetSpec {
        name: "GDELT".into(),
        n: 5037,
        m: 566_735,
        f: 10,
        t: 18,
        flavor: Flavor::Event,
        communities: 25,
        edge_persistence: 0.3,
        community_bias: 0.55,
        activity_exponent: 1.8,
        reciprocity: 0.2,
        burstiness: 0.6,
        burst_period: 6,
        attr_autocorr: 0.82,
        attr_diffusion: 0.12,
        degree_coupling: 0.35,
        attr_noise: 0.15,
        attr_affinity: 0.4,
        attr_factor_strength: 0.7,
    }
}

/// All six specs in the paper's Table I order.
pub fn all_specs() -> Vec<DatasetSpec> {
    vec![email(), bitcoin(), wiki(), guarantee(), brain(), gdelt()]
}

/// Look up a spec by (case-insensitive) name.
pub fn by_name(name: &str) -> Option<DatasetSpec> {
    all_specs().into_iter().find(|s| s.name.eq_ignore_ascii_case(name))
}

/// The valid spec names, in the paper's Table I order — the list an
/// [`UnknownDataset`] error reports.
pub fn spec_names() -> Vec<String> {
    all_specs().into_iter().map(|s| s.name).collect()
}

/// A dataset name that matched no spec. The display form lists every
/// valid name, so callers (e.g. `vrdag-cli synth`) can surface it
/// verbatim instead of maintaining their own copy of the list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownDataset {
    /// The name that failed to resolve.
    pub name: String,
}

impl std::fmt::Display for UnknownDataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown dataset {:?}; valid names (case-insensitive): {}",
            self.name,
            spec_names().join(", ")
        )
    }
}

impl std::error::Error for UnknownDataset {}

/// Like [`by_name`], but an unknown name yields a typed error whose
/// message lists the valid spec names.
pub fn by_name_or_err(name: &str) -> Result<DatasetSpec, UnknownDataset> {
    by_name(name).ok_or_else(|| UnknownDataset { name: name.to_string() })
}

/// A tiny spec for unit tests: ~60 nodes, 6 snapshots, 2 attributes.
pub fn tiny() -> DatasetSpec {
    DatasetSpec {
        name: "Tiny".into(),
        n: 60,
        m: 720,
        f: 2,
        t: 6,
        flavor: Flavor::Communication,
        communities: 4,
        edge_persistence: 0.5,
        community_bias: 0.7,
        activity_exponent: 2.0,
        reciprocity: 0.3,
        burstiness: 0.3,
        burst_period: 3,
        attr_autocorr: 0.85,
        attr_diffusion: 0.15,
        degree_coupling: 0.3,
        attr_noise: 0.1,
        attr_affinity: 0.5,
        attr_factor_strength: 0.7,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_statistics_match_paper() {
        let e = email();
        assert_eq!((e.n, e.m, e.f, e.t), (1891, 39_264, 2, 14));
        let b = bitcoin();
        assert_eq!((b.n, b.m, b.f, b.t), (3783, 24_186, 1, 37));
        let w = wiki();
        assert_eq!((w.n, w.m, w.f, w.t), (7115, 103_689, 1, 43));
        let g = guarantee();
        assert_eq!((g.n, g.m, g.f, g.t), (5530, 6169, 2, 15));
        let br = brain();
        assert_eq!((br.n, br.m, br.f, br.t), (5000, 529_093, 20, 12));
        let gd = gdelt();
        assert_eq!((gd.n, gd.m, gd.f, gd.t), (5037, 566_735, 10, 18));
    }

    #[test]
    fn scaled_shrinks_n_and_m() {
        let s = wiki().scaled(0.1);
        assert_eq!(s.n, 712);
        assert_eq!(s.m, 10_369);
        assert_eq!(s.t, 43);
        assert!(s.name.starts_with("Wiki@"));
    }

    #[test]
    fn with_t_keeps_density() {
        let s = bitcoin().with_t(10);
        assert_eq!(s.t, 10);
        let per_snapshot_before = bitcoin().edges_per_snapshot();
        let per_snapshot_after = s.edges_per_snapshot();
        assert!((per_snapshot_before as i64 - per_snapshot_after as i64).abs() <= 66);
    }

    #[test]
    fn by_name_is_case_insensitive() {
        assert!(by_name("email").is_some());
        assert!(by_name("GDELT").is_some());
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn unknown_names_report_the_valid_list() {
        assert_eq!(by_name_or_err("bitcoin").unwrap().name, "Bitcoin");
        let err = by_name_or_err("nope").unwrap_err();
        assert_eq!(err.name, "nope");
        let message = err.to_string();
        for name in spec_names() {
            assert!(message.contains(&name), "{message} missing {name}");
        }
        assert!(message.contains("\"nope\""), "{message}");
    }

    #[test]
    fn all_specs_has_six() {
        assert_eq!(all_specs().len(), 6);
    }
}
