//! The assembled VRDAG model: joint optimization (§III-E) and the
//! autoregressive generative process (§III-F, Algorithm 1).

// Index-based loops below walk several parallel arrays in hot paths;
// iterator zips would obscure them. (clippy::needless_range_loop)
#![allow(clippy::needless_range_loop)]

use crate::config::{AttrLoss, VrdagConfig};
use crate::decoder::{
    gat_arrays, sample_pair_batch, AttributeDecoder, DecodeCounts, DecodePlan, MixBernoulliDecoder,
};
use crate::encoder::{snapshot_features, BiFlowEncoder};
use crate::latent::{reparam_sample, GaussianHead};
use crate::time2vec::Time2Vec;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::rc::Rc;
use std::time::Instant;
use vrdag_graph::generator::{DynamicGraphGenerator, FitReport, GeneratorError};
use vrdag_graph::{DynamicGraph, Snapshot};
use vrdag_tensor::nn::GruCell;
use vrdag_tensor::ops::{self, Segments, SparseAdj};
use vrdag_tensor::{no_grad, optim, Matrix, Tensor};

/// Everything learned by [`Vrdag::fit`] besides the network weights.
#[derive(Clone, Debug, Default)]
pub struct TrainStats {
    /// Observed edge count per training timestep (drives generation-time
    /// density calibration).
    pub edges_per_step: Vec<f64>,
    /// Mean total loss per epoch.
    pub loss_history: Vec<f64>,
    /// Per-term losses of the final epoch: (KL, structure, attribute).
    pub final_terms: (f64, f64, f64),
    /// Training sequence length.
    pub train_t: usize,
    /// Mean number of nodes becoming active (first edge) per timestep,
    /// estimated from the training sequence; drives the §III-H node
    /// addition predictor.
    pub mean_new_active_per_step: f64,
    /// Per-timestep, per-dimension attribute mean (generation-time
    /// attribute calibration).
    pub attr_means: Vec<Vec<f32>>,
    /// Per-timestep, per-dimension attribute std.
    pub attr_stds: Vec<Vec<f32>>,
}

pub(crate) struct Modules {
    pub(crate) encoder: BiFlowEncoder,
    pub(crate) prior: GaussianHead,
    pub(crate) posterior: GaussianHead,
    pub(crate) decoder: MixBernoulliDecoder,
    pub(crate) attr_dec: AttributeDecoder,
    pub(crate) t2v: Time2Vec,
    pub(crate) gru: GruCell,
    pub(crate) n: usize,
    pub(crate) f: usize,
}

impl Modules {
    pub(crate) fn parameters(&self) -> Vec<Tensor> {
        let mut p = self.encoder.parameters();
        p.extend(self.prior.parameters());
        p.extend(self.posterior.parameters());
        p.extend(self.decoder.parameters());
        p.extend(self.attr_dec.parameters());
        p.extend(self.t2v.parameters());
        p.extend(self.gru.parameters());
        p
    }
}

/// Per-timestep precomputation shared across epochs.
struct StepCache {
    feats: Tensor,
    in_adj: Rc<SparseAdj>,
    out_adj: Rc<SparseAdj>,
    gat_src: Rc<Vec<u32>>,
    gat_dst: Rc<Vec<u32>>,
    gat_segs: Rc<Segments>,
    attrs_target: Rc<Matrix>,
}

/// The VRDAG generator (Variational Recurrent Dynamic Attributed Graph
/// Generator).
///
/// ```no_run
/// use vrdag::{Vrdag, VrdagConfig};
/// use vrdag_graph::DynamicGraphGenerator;
/// use rand::SeedableRng;
///
/// let graph = vrdag_datasets::generate(&vrdag_datasets::tiny(), 1);
/// let mut model = Vrdag::new(VrdagConfig::test_small());
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// model.fit(&graph, &mut rng).unwrap();
/// let synthetic = model.generate(graph.t_len(), &mut rng).unwrap();
/// assert_eq!(synthetic.t_len(), graph.t_len());
/// ```
pub struct Vrdag {
    pub(crate) cfg: VrdagConfig,
    pub(crate) modules: Option<Modules>,
    pub(crate) stats: Option<TrainStats>,
}

impl Vrdag {
    /// Create an unfitted model.
    ///
    /// # Panics
    /// Panics when the configuration is invalid (see
    /// [`VrdagConfig::validate`]).
    pub fn new(cfg: VrdagConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid VrdagConfig: {e}");
        }
        Vrdag { cfg, modules: None, stats: None }
    }

    /// The active configuration.
    pub fn config(&self) -> &VrdagConfig {
        &self.cfg
    }

    /// Training statistics, if fitted.
    pub fn stats(&self) -> Option<&TrainStats> {
        self.stats.as_ref()
    }

    /// Node count of the fitted node universe (`None` before `fit`).
    pub fn n_nodes(&self) -> Option<usize> {
        self.modules.as_ref().map(|m| m.n)
    }

    /// Attribute dimensionality of the fitted model (`None` before `fit`).
    pub fn n_attrs(&self) -> Option<usize> {
        self.modules.as_ref().map(|m| m.f)
    }

    /// Rebuild the architecture for deserialization (values are
    /// overwritten by the loader).
    pub(crate) fn build_modules_for_load(&self, f: usize, n: usize, rng: &mut StdRng) -> Modules {
        self.build_modules(f, n, rng)
    }

    fn build_modules(&self, f: usize, n: usize, rng: &mut StdRng) -> Modules {
        let cfg = &self.cfg;
        let d_input = f + 2; // attributes + log in/out degree features
        let gru_in = cfg.d_e + cfg.d_z + if cfg.use_time2vec { cfg.d_t } else { 0 };
        Modules {
            encoder: BiFlowEncoder::new(
                d_input,
                cfg.d_e,
                cfg.d_e,
                cfg.gnn_layers,
                cfg.leaky_slope,
                cfg.bi_flow,
                rng,
            ),
            prior: GaussianHead::new(cfg.d_h, cfg.d_h, cfg.d_z, cfg.leaky_slope, rng),
            posterior: GaussianHead::new(cfg.d_e + cfg.d_h, cfg.d_h, cfg.d_z, cfg.leaky_slope, rng),
            decoder: MixBernoulliDecoder::new(
                cfg.d_s(),
                cfg.decoder_hidden,
                cfg.k_mix,
                cfg.leaky_slope,
                rng,
            ),
            attr_dec: AttributeDecoder::new(
                cfg.d_s(),
                cfg.gat_hidden,
                f.max(1),
                cfg.leaky_slope,
                rng,
            ),
            t2v: Time2Vec::new(cfg.d_t, rng),
            gru: GruCell::new(gru_in, cfg.d_h, rng),
            n,
            f,
        }
    }

    fn build_caches(graph: &DynamicGraph) -> Vec<StepCache> {
        graph
            .iter()
            .map(|(_, s)| {
                let (gat_src, gat_dst, gat_segs) = gat_arrays(s.n_nodes(), s.edges());
                StepCache {
                    feats: Tensor::constant(snapshot_features(s)),
                    in_adj: Rc::new(s.in_adj().clone()),
                    out_adj: Rc::new(s.out_adj().clone()),
                    gat_src,
                    gat_dst,
                    gat_segs,
                    attrs_target: Rc::new(s.attrs().clone()),
                }
            })
            .collect()
    }

    /// Fit the model on an observed dynamic attributed graph by maximizing
    /// the step-wise ELBO (Eq. 14) with truncated BPTT.
    pub fn fit(
        &mut self,
        graph: &DynamicGraph,
        rng: &mut dyn RngCore,
    ) -> Result<FitReport, GeneratorError> {
        let started = Instant::now();
        let n = graph.n_nodes();
        let f = graph.n_attrs();
        let t_len = graph.t_len();
        let mut local_rng = StdRng::seed_from_u64(self.cfg.seed ^ rng.next_u64());
        let modules = self.build_modules(f, n, &mut local_rng);
        let params = modules.parameters();
        let caches = Self::build_caches(graph);
        let mut adam = optim::Adam::new(self.cfg.lr);
        let mut loss_history = Vec::with_capacity(self.cfg.epochs);
        let mut final_terms = (0.0f64, 0.0f64, 0.0f64);

        for _epoch in 0..self.cfg.epochs {
            let mut h = Tensor::constant(Matrix::zeros(n, self.cfg.d_h));
            let mut epoch_loss = 0.0f64;
            let mut epoch_terms = (0.0f64, 0.0f64, 0.0f64);
            let mut t = 0usize;
            while t < t_len {
                let window_end = (t + self.cfg.tbptt_window).min(t_len);
                let mut window_loss: Option<Tensor> = None;
                for ti in t..window_end {
                    let cache = &caches[ti];
                    let snapshot = graph.snapshot(ti);
                    // ε(G_t) (Eq. 5–7).
                    let enc = modules.encoder.forward(&cache.feats, &cache.in_adj, &cache.out_adj);
                    // Posterior q_ψ(Z_t | ε(G_t), H_{t−1}) (Eq. 8–9).
                    let post_in = ops::concat_cols(&[&enc, &h]);
                    let (mu_q, lv_q) = modules.posterior.forward(&post_in);
                    // Prior p_φ(Z_t | H_{t−1}) (Eq. 3–4).
                    let (mu_p, lv_p) = modules.prior.forward(&h);
                    let z = reparam_sample(&mu_q, &lv_q, &mut local_rng);
                    // L_prior (Eq. 15), normalized per node.
                    let kl = ops::scale(
                        &ops::kl_diag_gaussian(&mu_q, &lv_q, &mu_p, &lv_p),
                        self.cfg.kl_weight / n as f32,
                    );
                    // Decoder state S_t = [Z_t ‖ H_{t−1}].
                    let s = ops::concat_cols(&[&z, &h]);
                    // L_struc (Eq. 17) on sampled pairs.
                    let batch = sample_pair_batch(snapshot, self.cfg.neg_samples, &mut local_rng);
                    let alpha = modules.decoder.alpha_train(
                        &s,
                        n,
                        self.cfg.alpha_ref_samples,
                        &mut local_rng,
                    );
                    let l_struc = modules.decoder.structure_loss(&s, &alpha, &batch, n);
                    // L_attr (Eq. 18) conditioned on the *true* A_t
                    // (dependency-aware factorization, Eq. 10).
                    let l_attr = if f > 0 {
                        let x_hat = modules.attr_dec.forward(
                            &s,
                            &cache.gat_src,
                            &cache.gat_dst,
                            &cache.gat_segs,
                            n,
                        );
                        match self.cfg.attr_loss {
                            AttrLoss::Sce => {
                                let target_t = Tensor::constant((*cache.attrs_target).clone());
                                let cos = ops::cosine_rows(&x_hat, &target_t);
                                let err = ops::powf(&ops::one_minus(&cos), self.cfg.sce_alpha);
                                let sce = ops::mean_all(&err);
                                if self.cfg.attr_mse_anchor > 0.0 {
                                    // SCE is scale-invariant; a light MSE
                                    // anchor pins the magnitude (see
                                    // VrdagConfig::attr_mse_anchor).
                                    let mse = ops::mse_loss(&x_hat, Rc::clone(&cache.attrs_target));
                                    ops::add(&sce, &ops::scale(&mse, self.cfg.attr_mse_anchor))
                                } else {
                                    sce
                                }
                            }
                            AttrLoss::Mse => ops::mse_loss(&x_hat, Rc::clone(&cache.attrs_target)),
                        }
                    } else {
                        Tensor::constant(Matrix::scalar(0.0))
                    };
                    epoch_terms.0 += kl.item() as f64;
                    epoch_terms.1 += l_struc.item() as f64;
                    epoch_terms.2 += l_attr.item() as f64;
                    let l_attr_w = ops::scale(&l_attr, self.cfg.attr_weight);
                    let step_loss = ops::add(&ops::add(&kl, &l_struc), &l_attr_w);
                    window_loss = Some(match window_loss {
                        Some(acc) => ops::add(&acc, &step_loss),
                        None => step_loss,
                    });
                    // Recurrence update (§III-D) with teacher forcing:
                    // H_t = GRU([ε(G_t) ‖ Z_t ‖ f_T(t)], H_{t−1}).
                    if self.cfg.use_recurrence {
                        let gru_in = if self.cfg.use_time2vec {
                            let tv = modules.t2v.forward_broadcast(ti, n);
                            ops::concat_cols(&[&enc, &z, &tv])
                        } else {
                            ops::concat_cols(&[&enc, &z])
                        };
                        h = modules.gru.forward(&gru_in, &h);
                    } else {
                        h = Tensor::constant(Matrix::zeros(n, self.cfg.d_h));
                    }
                }
                if let Some(loss) = window_loss {
                    let lv = loss.item();
                    if lv.is_finite() {
                        epoch_loss += lv as f64;
                        optim::zero_grad(&params);
                        loss.backward();
                        optim::clip_global_norm(&params, self.cfg.grad_clip);
                        adam.step(&params);
                    } else {
                        optim::zero_grad(&params);
                    }
                }
                // Truncate BPTT at the window boundary.
                h = h.detach();
                t = window_end;
            }
            loss_history.push(epoch_loss / t_len as f64);
            final_terms = (
                epoch_terms.0 / t_len as f64,
                epoch_terms.1 / t_len as f64,
                epoch_terms.2 / t_len as f64,
            );
        }

        let (attr_means, attr_stds) = attribute_moments(graph);
        let stats = TrainStats {
            edges_per_step: graph.iter().map(|(_, s)| s.n_edges() as f64).collect(),
            loss_history: loss_history.clone(),
            final_terms,
            train_t: t_len,
            mean_new_active_per_step: mean_new_active_per_step(graph),
            attr_means,
            attr_stds,
        };
        self.modules = Some(modules);
        self.stats = Some(stats);
        Ok(FitReport {
            train_seconds: started.elapsed().as_secs_f64(),
            epochs: self.cfg.epochs,
            final_loss: loss_history.last().copied().unwrap_or(f64::NAN),
        })
    }

    /// Start a resumable generation run (Algorithm 1).
    ///
    /// The returned [`GenerationState`] carries everything the recurrence
    /// needs between timesteps — the hidden state `H_t`, the timestep
    /// counter, and a derived RNG — so snapshots can be produced one at a
    /// time with memory bounded by a single snapshot. `rng` is consumed
    /// exactly as by [`Vrdag::generate`] (one `next_u64` call to derive
    /// the stream seed), so stepping a state to `t_len` yields the same
    /// sequence as a one-shot `generate(t_len, rng)` call from the same
    /// RNG state.
    pub fn begin_generation(
        &self,
        rng: &mut dyn RngCore,
    ) -> Result<GenerationState, GeneratorError> {
        let modules = self.modules.as_ref().ok_or(GeneratorError::NotFitted)?;
        self.stats.as_ref().ok_or(GeneratorError::NotFitted)?;
        Ok(GenerationState {
            h: Matrix::zeros(modules.n, self.cfg.d_h),
            t: 0,
            rng: StdRng::seed_from_u64(rng.next_u64()),
            // Decoder weights are fixed for the whole run: materialize them
            // out of the autograd tensors once and reuse across every step.
            plan: modules.decoder.plan(),
            decode: DecodeCounts::default(),
        })
    }

    /// Advance a generation run by one timestep and return snapshot
    /// `G̃_{t+1}` (lines 3–7 of Algorithm 1).
    ///
    /// `state` must come from [`Vrdag::begin_generation`] on this (or an
    /// identically-loaded) model.
    pub fn step_generation(&self, state: &mut GenerationState) -> Snapshot {
        let modules = self.modules.as_ref().expect("state comes from begin_generation");
        let stats = self.stats.as_ref().expect("state comes from begin_generation");
        let n = modules.n;
        let f = modules.f;
        let t = state.t;
        no_grad(|| {
            let h = Tensor::constant(std::mem::replace(&mut state.h, Matrix::zeros(0, 0)));
            // Line 3: Z_{t+1} ~ p_φ(H_t).
            let (mu_p, lv_p) = modules.prior.forward(&h);
            let z = reparam_sample(&mu_p, &lv_p, &mut state.rng);
            let s = ops::concat_cols(&[&z, &h]);
            let s_mat = s.value_clone();
            // Line 4: Ã_{t+1} via the MixBernoulli sampler.
            let m_target = if self.cfg.calibrate_density {
                let idx = t.min(stats.edges_per_step.len().saturating_sub(1));
                stats.edges_per_step.get(idx).copied()
            } else {
                None
            };
            let (edges, counts) =
                state.plan.generate_edges_counted(&s_mat, m_target, state.rng.gen());
            state.decode.pairs += counts.pairs;
            state.decode.scored += counts.scored;
            // Line 5: X̃_{t+1} conditioned on the generated topology.
            let attrs = if f > 0 {
                let (src, dst, segs) = gat_arrays(n, &edges);
                let mut x = modules.attr_dec.forward(&s, &src, &dst, &segs, n).value_clone();
                if self.cfg.calibrate_attributes {
                    let idx = t.min(stats.attr_means.len().saturating_sub(1));
                    calibrate_attributes(&mut x, &stats.attr_means[idx], &stats.attr_stds[idx]);
                }
                x
            } else {
                Matrix::zeros(n, 0)
            };
            let snapshot = Snapshot::new(n, edges, attrs);
            // Line 7: H_{t+1} = GRU([ε(G̃) ‖ Z ‖ f_T(t+1)], H_t).
            state.h = if self.cfg.use_recurrence {
                let feats = Tensor::constant(snapshot_features(&snapshot));
                let in_adj = Rc::new(snapshot.in_adj().clone());
                let out_adj = Rc::new(snapshot.out_adj().clone());
                let enc = modules.encoder.forward(&feats, &in_adj, &out_adj);
                let gru_in = if self.cfg.use_time2vec {
                    let tv = modules.t2v.forward_broadcast(t, n);
                    ops::concat_cols(&[&enc, &z, &tv])
                } else {
                    ops::concat_cols(&[&enc, &z])
                };
                modules.gru.forward(&gru_in, &h).value_clone()
            } else {
                Matrix::zeros(n, self.cfg.d_h)
            };
            state.t = t + 1;
            snapshot
        })
    }

    /// Generate a synthetic dynamic attributed graph (Algorithm 1).
    ///
    /// One-shot convenience over [`Vrdag::begin_generation`] /
    /// [`GenerationState::step`]: materializes all `t_len` snapshots.
    pub fn generate(
        &self,
        t_len: usize,
        rng: &mut dyn RngCore,
    ) -> Result<DynamicGraph, GeneratorError> {
        let mut state = self.begin_generation(rng)?;
        let snapshots = (0..t_len).map(|_| state.step(self)).collect();
        Ok(DynamicGraph::new(snapshots))
    }
}

/// Resumable state of a generation run: the recurrent hidden state
/// `H_t`, the timestep counter, and the derived sampling RNG.
///
/// Produced by [`Vrdag::begin_generation`]; advanced one snapshot at a
/// time by [`GenerationState::step`]. Holds plain values (no borrows of
/// the model and no autograd tape), so it is cheap to keep alive between
/// requests and can be moved across threads together with its model.
#[derive(Clone, Debug)]
pub struct GenerationState {
    h: Matrix,
    t: usize,
    rng: StdRng,
    plan: DecodePlan,
    decode: DecodeCounts,
}

impl GenerationState {
    /// Number of snapshots produced so far (the next step generates
    /// snapshot index `t()`).
    pub fn t(&self) -> usize {
        self.t
    }

    /// Pair counts of every snapshot decoded so far, summed.
    pub fn decode_counts(&self) -> DecodeCounts {
        self.decode
    }

    /// Produce the next snapshot from `model` (Algorithm 1, one timestep).
    pub fn step(&mut self, model: &Vrdag) -> Snapshot {
        model.step_generation(self)
    }
}

/// Per-timestep, per-dimension attribute mean and std of the training
/// graph (drives the attribute calibration of `Vrdag::generate`).
fn attribute_moments(graph: &DynamicGraph) -> (Vec<Vec<f32>>, Vec<Vec<f32>>) {
    let f = graph.n_attrs();
    let n = graph.n_nodes().max(1);
    let mut means = Vec::with_capacity(graph.t_len());
    let mut stds = Vec::with_capacity(graph.t_len());
    for (_, s) in graph.iter() {
        let mut mean = vec![0.0f32; f];
        let mut sq = vec![0.0f32; f];
        for i in 0..s.n_nodes() {
            for d in 0..f {
                let x = s.attrs().get(i, d);
                mean[d] += x;
                sq[d] += x * x;
            }
        }
        for d in 0..f {
            mean[d] /= n as f32;
            sq[d] = (sq[d] / n as f32 - mean[d] * mean[d]).max(1e-12).sqrt();
        }
        means.push(mean);
        stds.push(sq);
    }
    (means, stds)
}

/// Affinely rescale each attribute column of `x` to the target moments.
fn calibrate_attributes(x: &mut Matrix, target_mean: &[f32], target_std: &[f32]) {
    let (n, f) = x.shape();
    if n == 0 || f == 0 {
        return;
    }
    for d in 0..f {
        let mut mean = 0.0f32;
        let mut sq = 0.0f32;
        for i in 0..n {
            let v = x.get(i, d);
            mean += v;
            sq += v * v;
        }
        mean /= n as f32;
        let std = (sq / n as f32 - mean * mean).max(1e-12).sqrt();
        let scale = target_std[d] / std.max(1e-6);
        for i in 0..n {
            let v = x.get(i, d);
            x.set(i, d, target_mean[d] + (v - mean) * scale);
        }
    }
}

/// Mean number of nodes whose first incident edge appears at step t ≥ 1
/// (the paper's N_add predictor target, §III-H).
fn mean_new_active_per_step(graph: &DynamicGraph) -> f64 {
    let n = graph.n_nodes();
    let mut first_seen = vec![usize::MAX; n];
    for (t, s) in graph.iter() {
        for &(u, v) in s.edges() {
            for node in [u as usize, v as usize] {
                if first_seen[node] == usize::MAX {
                    first_seen[node] = t;
                }
            }
        }
    }
    if graph.t_len() < 2 {
        return 0.0;
    }
    let new_after_start = first_seen.iter().filter(|&&t| t != usize::MAX && t >= 1).count();
    new_after_start as f64 / (graph.t_len() - 1) as f64
}

impl DynamicGraphGenerator for Vrdag {
    fn name(&self) -> &str {
        "VRDAG"
    }

    fn supports_attributes(&self) -> bool {
        true
    }

    fn is_dynamic(&self) -> bool {
        true
    }

    fn fit(
        &mut self,
        graph: &DynamicGraph,
        rng: &mut dyn RngCore,
    ) -> Result<FitReport, GeneratorError> {
        Vrdag::fit(self, graph, rng)
    }

    fn generate(
        &self,
        t_len: usize,
        rng: &mut dyn RngCore,
    ) -> Result<DynamicGraph, GeneratorError> {
        Vrdag::generate(self, t_len, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_graph() -> DynamicGraph {
        vrdag_datasets::generate(&vrdag_datasets::tiny(), 5)
    }

    #[test]
    fn fit_then_generate_round_trip() {
        let g = tiny_graph();
        let mut model = Vrdag::new(VrdagConfig::test_small());
        let mut rng = StdRng::seed_from_u64(1);
        let report = model.fit(&g, &mut rng).unwrap();
        assert!(report.final_loss.is_finite());
        let out = model.generate(g.t_len(), &mut rng).unwrap();
        assert_eq!(out.n_nodes(), g.n_nodes());
        assert_eq!(out.n_attrs(), g.n_attrs());
        assert_eq!(out.t_len(), g.t_len());
        assert!(out.temporal_edge_count() > 0, "generated graph has no edges");
    }

    #[test]
    fn generate_before_fit_errors() {
        let model = Vrdag::new(VrdagConfig::test_small());
        let mut rng = StdRng::seed_from_u64(2);
        assert!(matches!(model.generate(3, &mut rng), Err(GeneratorError::NotFitted)));
    }

    #[test]
    fn training_loss_decreases() {
        let g = tiny_graph();
        let mut cfg = VrdagConfig::test_small();
        cfg.epochs = 12;
        let mut model = Vrdag::new(cfg);
        let mut rng = StdRng::seed_from_u64(3);
        model.fit(&g, &mut rng).unwrap();
        let hist = &model.stats().unwrap().loss_history;
        let first = hist[..2].iter().sum::<f64>() / 2.0;
        let last = hist[hist.len() - 2..].iter().sum::<f64>() / 2.0;
        assert!(last < first, "training loss did not decrease: {first} -> {last} ({hist:?})");
    }

    #[test]
    fn calibrated_generation_tracks_density() {
        let g = tiny_graph();
        let mut cfg = VrdagConfig::test_small();
        cfg.epochs = 6;
        let mut model = Vrdag::new(cfg);
        let mut rng = StdRng::seed_from_u64(4);
        model.fit(&g, &mut rng).unwrap();
        let out = model.generate(g.t_len(), &mut rng).unwrap();
        let m_orig = g.temporal_edge_count() as f64;
        let m_gen = out.temporal_edge_count() as f64;
        assert!(
            m_gen > 0.3 * m_orig && m_gen < 3.0 * m_orig,
            "generated {m_gen} vs original {m_orig} temporal edges"
        );
    }

    #[test]
    fn ablation_configs_run() {
        let g = tiny_graph();
        for (bi, t2v, rec) in [(false, true, true), (true, false, true), (true, true, false)] {
            let mut cfg = VrdagConfig::test_small();
            cfg.bi_flow = bi;
            cfg.use_time2vec = t2v;
            cfg.use_recurrence = rec;
            cfg.epochs = 2;
            let mut model = Vrdag::new(cfg);
            let mut rng = StdRng::seed_from_u64(5);
            model.fit(&g, &mut rng).unwrap();
            let out = model.generate(3, &mut rng).unwrap();
            assert_eq!(out.t_len(), 3);
        }
    }

    #[test]
    fn mse_attr_loss_ablation_runs() {
        let g = tiny_graph();
        let mut cfg = VrdagConfig::test_small();
        cfg.attr_loss = AttrLoss::Mse;
        cfg.epochs = 2;
        let mut model = Vrdag::new(cfg);
        let mut rng = StdRng::seed_from_u64(6);
        let report = model.fit(&g, &mut rng).unwrap();
        assert!(report.final_loss.is_finite());
    }

    #[test]
    fn stepper_matches_one_shot_generate() {
        let g = tiny_graph();
        let mut model = Vrdag::new(VrdagConfig::test_small());
        let mut rng = StdRng::seed_from_u64(21);
        model.fit(&g, &mut rng).unwrap();

        let mut r1 = StdRng::seed_from_u64(77);
        let one_shot = model.generate(4, &mut r1).unwrap();

        let mut r2 = StdRng::seed_from_u64(77);
        let mut state = model.begin_generation(&mut r2).unwrap();
        let stepped: Vec<Snapshot> = (0..4).map(|_| state.step(&model)).collect();
        assert_eq!(state.t(), 4);
        assert_eq!(one_shot, DynamicGraph::new(stepped));
    }

    #[test]
    fn begin_generation_before_fit_errors() {
        let model = Vrdag::new(VrdagConfig::test_small());
        let mut rng = StdRng::seed_from_u64(5);
        assert!(matches!(model.begin_generation(&mut rng), Err(GeneratorError::NotFitted)));
    }

    #[test]
    fn generation_state_is_resumable_mid_sequence() {
        // Pausing and resuming a state must not perturb the stream: steps
        // 0..2 then 2..5 equal one uninterrupted 0..5 run.
        let g = tiny_graph();
        let mut model = Vrdag::new(VrdagConfig::test_small());
        let mut rng = StdRng::seed_from_u64(22);
        model.fit(&g, &mut rng).unwrap();

        let mut ra = StdRng::seed_from_u64(5);
        let full = model.generate(5, &mut ra).unwrap();

        let mut rb = StdRng::seed_from_u64(5);
        let mut state = model.begin_generation(&mut rb).unwrap();
        let mut parts: Vec<Snapshot> = (0..2).map(|_| state.step(&model)).collect();
        let paused = state.clone(); // a checkpointed copy resumes identically
        drop(state);
        let mut resumed = paused;
        parts.extend((2..5).map(|_| resumed.step(&model)));
        assert_eq!(full, DynamicGraph::new(parts));
    }

    #[test]
    fn trait_object_usage() {
        let g = tiny_graph();
        let mut gen: Box<dyn DynamicGraphGenerator> =
            Box::new(Vrdag::new(VrdagConfig::test_small()));
        assert_eq!(gen.name(), "VRDAG");
        assert!(gen.supports_attributes());
        assert!(gen.is_dynamic());
        let mut rng = StdRng::seed_from_u64(7);
        gen.fit(&g, &mut rng).unwrap();
        let out = gen.generate(2, &mut rng).unwrap();
        assert_eq!(out.t_len(), 2);
    }
}
